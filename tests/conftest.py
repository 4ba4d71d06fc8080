import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
# the benchmark's modules, for tests of what it reads from the library
sys.path.append(os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
