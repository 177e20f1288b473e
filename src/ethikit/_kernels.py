# The tokenizer is pure Python (ethikit.tokenizer). This module stays only
# because perfbench/harness.py:environment() imports it and records BACKEND.
BACKEND = "pure"
