"""Class groups, Cayley expander graphs and isogeny graphs over small prime fields.

Subpackages:

* :mod:`isocayley.abelian` -- exact finite abelian groups and characters
* :mod:`isocayley.quadform` -- binary quadratic forms and class groups
* :mod:`isocayley.cayley` -- Cayley multigraphs, exact and numeric spectra
* :mod:`isocayley.walks` -- seeded random walks and mixing experiments
* :mod:`isocayley.pathfind` -- two-step meet-in-the-middle path search
* :mod:`isocayley.ecgraph` -- ordinary elliptic curves and l-isogeny graphs
* :mod:`isocayley.cli` -- the ``isocayley`` command-line front end
"""

__version__ = "0.1.0"
