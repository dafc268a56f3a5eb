"""Class groups, Cayley expander graphs and isogeny graphs over small prime fields.

Modules:

* :mod:`isocayley.abelian` -- exact finite abelian groups and characters
* :mod:`isocayley.quadform` -- binary quadratic forms and class groups
* :mod:`isocayley.cayley` -- Cayley multigraphs and their exact spectra by characters
* :mod:`isocayley.walks` -- seeded random walks and mixing experiments
* :mod:`isocayley.pathfind` -- two-step meet-in-the-middle path search
* :mod:`isocayley.ecgraph` -- ordinary elliptic curves and l-isogeny graphs
* :mod:`isocayley.fppoly` -- dense polynomial arithmetic over F_p, stacked
* :mod:`isocayley.ntheory` -- small exact number-theory helpers
* :mod:`isocayley.errors` -- the exception taxonomy the CLI maps to exit codes
* :mod:`isocayley.cli` -- the ``isocayley`` command-line front end
"""

__version__ = "0.1.0"
