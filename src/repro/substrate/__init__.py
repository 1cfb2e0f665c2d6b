"""Substrates the paper depends on but that are not available here.

``numutils``  — numpy kernels replacing scipy (inverse normal CDF, KDE,
                Knight's O(n log n) Kendall tau-b, uniformity statistic).
``cluster``   — agglomerative hierarchical clustering + dendrogram linkage,
                replacing scipy.cluster for the nullity dendrogram.

The passes call Spark's DataFrame API directly; the missing spectrum numbers
rows with partition offsets inside the co-moment scan
(``core.correlation.comoment_scan``).
"""
