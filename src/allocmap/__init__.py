"""Maps of fair-division instances.

Generate synthetic and landmark utility matrices, compare them with exact or
polynomial matching distances, lay them out on a plane (SMACOF embedding or
the singular-value map), and annotate them with exhaustive fairness features.
"""
