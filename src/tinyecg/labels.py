"""Beat class vocabulary and the AAMI annotation-symbol grouping.

Four classes are kept for classification, and a beat's class is its
integer code into `CLASSES` from the annotation file to the report.
`SYMBOL_CODE` holds the code of each symbol in the four classes; any
other symbol (paced, unclassifiable, non-beat) codes as -1 and is
dropped before windowing.
"""

from __future__ import annotations

# Fixed class order; model outputs and confusion matrices follow it.
CLASSES = ("N", "S", "V", "F")

LABEL_INDEX = {c: i for i, c in enumerate(CLASSES)}

# MIT-BIH annotation symbols grouped per the AAMI recommended practice:
#   N: normal, bundle branch block, atrial/nodal escape
#   S: supraventricular ectopic
#   V: ventricular ectopic
#   F: fusion of ventricular and normal
AAMI_GROUPS = {
    "N": frozenset("NLRej"),
    "S": frozenset("AaJS"),
    "V": frozenset("VE"),
    "F": frozenset("F"),
}

SYMBOL_CODE = {sym: LABEL_INDEX[cls] for cls, syms in AAMI_GROUPS.items() for sym in syms}
