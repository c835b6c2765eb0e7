"""Werner-state fidelity of entanglement distributed over a chain of swaps.

Every elementary link is prepared as a Werner pair with the same fidelity
``f``.  Joining two segments by an entanglement swap at a node with noise
rate ``eta`` multiplies the product of the segment Werner parameters by
``(4 * eta**2 - 1) / 3``.  Folding that step over a whole path gives a
closed form for the end-to-end fidelity: with ``N`` intermediate nodes the
chain uses ``N + 1`` links, and

    F_N = 1/4 * (1 + 3 * prod_g(nu_g ** N_g) * w ** (N + 1))

where ``w`` is the link Werner parameter, ``nu_g`` the swap factor of node
class ``g`` and ``N_g`` the number of path nodes in that class.
The form is stated once, in ``_chain``, which multiplies the class
factors in descending (noise rate, node count) order, so its value does
not depend on the order the classes come in.  :func:`end_to_end_fidelity`
takes the counts ``N_g`` of any number of classes, and
:func:`two_class_fidelity` the two classes, high and low quality, of the
networks studied here; the router scores every route with the latter.
Both are one call of ``_chain``, so they agree bit for bit.
:func:`iterate_swaps` folds the swaps one by one with no closed form and
serves as the independent cross-check: it agrees to rounding only.

The noise rate must exceed 0.5 and the link fidelity must exceed 0.25,
otherwise the swap chain has no entanglement left to track.  A direct
consequence used throughout the tests: every end-to-end fidelity stays
strictly above 1/4, however long the path.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

__all__ = [
    "MIN_LINK_FIDELITY",
    "MIN_NOISE_RATE",
    "NoiseClass",
    "end_to_end_fidelity",
    "iterate_swaps",
    "swap_noise_factor",
    "two_class_fidelity",
    "werner_fidelity",
    "werner_parameter",
]

MIN_LINK_FIDELITY = 0.25
MIN_NOISE_RATE = 0.5


def werner_parameter(fidelity: float) -> float:
    """Return the Werner parameter ``(4f - 1) / 3`` of a pair with fidelity ``f``."""
    if not MIN_LINK_FIDELITY < fidelity <= 1.0:
        raise ValueError(
            f"link fidelity must lie in ({MIN_LINK_FIDELITY}, 1], got {fidelity}"
        )
    return (4.0 * fidelity - 1.0) / 3.0


def werner_fidelity(w: float) -> float:
    """Return the fidelity ``(1 + 3w) / 4`` of a Werner pair with parameter ``w``."""
    return (1.0 + 3.0 * w) / 4.0


def swap_noise_factor(eta: float) -> float:
    """Return the Werner-parameter contraction ``(4*eta**2 - 1) / 3`` of one swap.

    ``eta`` is the noise rate of the node performing the swap; a perfect node
    (``eta = 1``) contracts by exactly 1, i.e. not at all.
    """
    if not MIN_NOISE_RATE < eta <= 1.0:
        raise ValueError(f"noise rate must lie in ({MIN_NOISE_RATE}, 1], got {eta}")
    return (4.0 * eta * eta - 1.0) / 3.0


@dataclass(frozen=True)
class NoiseClass:
    """A node quality class: a label plus the swap noise rate of its members.

    The rate is checked by :func:`swap_noise_factor`, the one statement of
    the noise-rate rule.
    """

    label: str
    eta: float

    def __post_init__(self) -> None:
        swap_noise_factor(self.eta)


def _chain(pairs: Iterable[tuple[float, int]], link_fidelity: float) -> float:
    """The closed form over (noise rate, node count) pairs: its one statement.

    The swap factors are multiplied in descending (rate, count) order, so
    the value is the same to the bit whatever the order of ``pairs``.
    """
    x = 3.0
    nodes = 0
    for eta, count in sorted(pairs, reverse=True):
        if count < 0:
            raise ValueError(f"node counts must be non-negative, got {count}")
        x *= swap_noise_factor(eta) ** count
        nodes += count
    return 0.25 * (1.0 + x * werner_parameter(link_fidelity) ** (nodes + 1))


def end_to_end_fidelity(class_counts: Mapping[NoiseClass, int], link_fidelity: float) -> float:
    """Closed-form fidelity of the pair delivered across a swap chain.

    ``class_counts`` gives the number of intermediate nodes of each noise
    class, as :func:`~qrepnet.routing.path_composition` counts them, and
    ``link_fidelity`` the common fidelity of every elementary link.  The
    value does not depend on the order of the classes.
    """
    return _chain(((cls.eta, count) for cls, count in class_counts.items()), link_fidelity)


def two_class_fidelity(
    n_h: int,
    n_l: int,
    eta_h: float,
    eta_l: float,
    link_fidelity: float,
) -> float:
    """End-to-end fidelity over ``n_h`` high-quality and ``n_l`` low-quality nodes.

    The score of every route the router serves:

        F = 1/4 * (1 + 3 * nu_h**n_h * nu_l**n_l * w**(n_h + n_l + 1))

    It equals :func:`end_to_end_fidelity` of the same two classes bit for
    bit, and is the same whichever class is called high quality.
    """
    return _chain(((eta_h, n_h), (eta_l, n_l)), link_fidelity)


def iterate_swaps(node_etas: Iterable[float], link_fidelity: float) -> float:
    """Fidelity after swapping one node at a time, with no closed form.

    Starts from a single link and merges one further link per node, tracking
    the Werner parameter of the growing segment.  Serves as an independent
    cross-check of :func:`end_to_end_fidelity`; the two must agree to within
    floating-point error for any node ordering.
    """
    w_link = werner_parameter(link_fidelity)
    w = w_link
    for eta in node_etas:
        w = swap_noise_factor(eta) * w * w_link
    return werner_fidelity(w)
