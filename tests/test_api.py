"""The public API stays importable from ``gamma0`` while internals change."""

import gamma0

PUBLIC_NAMES = """
    INF ONE ZERO Frac denominators farey_sequence is_farey_pair
    lift_denominator_sequence mediant pair_from_denominators
    GeneratingSystem Generator VerificationReport cusp_class_count
    independent_system verify_system
    GroupInvariants SearchExhausted divisors equality_list euler_phi factorize
    group_invariants is_prime m_bounds m_exact_search prime_or_prime_square
    totient_summatory twin_factors
    EVEN FREE GROWTH_STRATEGIES ODD VERTICAL LabeledPolygon attach_triangle
    base_polygon classify_side grow_maximal is_maximal polygon_from_cusps
    polygon_from_json side_pairing_system
    I Mat R S T act compose edge_transport element_order in_gamma0 inverse
    norm_stats
    CashewCertificate FareyTriple TripleNotApplicable build_optimal_polygon
    build_twin_polygon canonical_rotation canonical_triples cashew_ceiling
    cashew_certificate cashew_certificates complete_triple is_farey_triple
    triple_count triple_from_free_side twin_eligible
    __version__
""".split()


def test_public_names_importable():
    assert [name for name in PUBLIC_NAMES if not hasattr(gamma0, name)] == []
