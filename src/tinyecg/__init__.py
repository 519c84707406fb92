"""Low-compute ECG arrhythmia pipeline.

Pan-Tompkins preprocessing and streaming R-peak detection feed a
61 -> 10 -> 4 dense classifier; post-training int8 quantization with
temporary dequantization keeps the deployed model inside a 2 KB SRAM
budget. This package is the host-side reference: data ingestion,
training, quantization, exact FLOPs/byte accounting and evaluation.

Each name is imported from the module that defines it
(`from tinyecg.train import fit`); the package itself holds only
`__version__`, so importing one module loads only what that module uses.
"""

__version__ = "0.1.0"
