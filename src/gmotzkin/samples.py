"""Worked example paths.

``BIJECTION_SAMPLE_INPUT`` is a uvv-avoiding path of length 28 and
``BIJECTION_SAMPLE_OUTPUT`` its image under sigma, a uvu-avoiding path of
the same length; together they pin down a nontrivial instance of the
bijection touching every recursion case, which ``verify``'s criterion 5
maps both ways.
"""

BIJECTION_SAMPLE_INPUT = "uuudvvuudvuuuuuvdvvvhuuhdvuuuvhvuvuuhudvvv"

BIJECTION_SAMPLE_OUTPUT = "uudduuvduuuuvvddhuhuvduuuvhvuuhuddvv"
