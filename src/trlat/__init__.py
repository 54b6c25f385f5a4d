"""Transfer systems on finite groups: generation, enumeration, realizability."""

from .groups import (FiniteGroup, GroupValidationError, abelian_group, builtin_group,
                     cyclic_group, dihedral_group, klein_group, make_group,
                     quaternion_group, symmetric_group)
from .lattice import SubgroupLattice, automorphisms, subgroup_lattice
from .transfer import (SearchBoundExceeded, SystemList, TransferSystem,
                       TransferSystemError, Violation, aut_orbits,
                       closed_form_normal_source, closed_form_normal_target,
                       enumerate_all, generate, hasse_diagram, irreducible_pairs,
                       is_saturated, join, meet, validate)
from .realize import (LinIsomFixtureRow, NoRealizabilityData, NotRealizable,
                      RepCatalogEntry, catalog, index_set, linisom_cyclic, linisom_fixture,
                      linisom_image, linisom_image_cyclic, minimal_steiner_universe,
                      realize_saturated, steiner_cyclic, steiner_image, universe,
                      unrealized_fixture)
from .chains import MaximalChain, maximal_chain

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
