"""Substrates the paper depends on but that are not available here.

``numutils``  — numpy kernels replacing scipy (inverse normal CDF, KDE,
                Kendall tau-b, uniformity statistic).
``cluster``   — agglomerative hierarchical clustering + dendrogram linkage,
                replacing scipy.cluster for the nullity dendrogram.
``sparkutils``— Spark DataFrame helpers: the contiguous row index of the
                missing spectrum.
"""
