"""Import dpquant from this checkout's sources before the tests load."""

from perfbench.checkout import import_program

import_program()
