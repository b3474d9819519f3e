import sys

# pytest imports the package from src/; keep it from leaving a bytecode
# cache in src/platjones/, which later runs of the program would load
sys.dont_write_bytecode = True
