import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# the benchmark's modules import each other by name, and dfra comes from src/
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]
