"""Unit tests for the generic namespaced registry."""

from __future__ import annotations

import pytest

from repro.catalog import (
    Catalog,
    CatalogKeyError,
    NAMESPACES,
    default_catalog,
    normalise_name,
    register_builtins,
)
from repro.core.technology import ST_CMOS09_LL, Technology


class TestNormalisation:
    def test_case_dash_underscore_fold_together(self):
        variants = ["ST-CMOS09-LL", "st_cmos09_ll", "St Cmos09 Ll", "ST_CMOS09-ll"]
        keys = {normalise_name(v) for v in variants}
        assert keys == {"st_cmos09_ll"}

    def test_separator_runs_collapse(self):
        assert normalise_name("RCA  hor.pipe2") == "rca_hor.pipe2"
        assert normalise_name("a -_ b") == "a_b"

    def test_leading_trailing_separators_stripped(self):
        assert normalise_name("  -auto_ ") == "auto"

    def test_empty_and_non_string_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            normalise_name("  ")
        with pytest.raises(ValueError, match="strings"):
            normalise_name(42)


class TestNamespace:
    @pytest.fixture
    def catalog(self):
        return Catalog()

    def test_register_and_lookup_any_spelling(self, catalog):
        tech = ST_CMOS09_LL
        catalog.register("technology", "My-Flavour", tech, summary="s")
        for spelling in ("my-flavour", "MY_FLAVOUR", "my flavour"):
            assert catalog.get("technology", spelling) is tech

    def test_aliases_resolve_to_the_same_entry(self, catalog):
        catalog.register("technology", "Full-Name", ST_CMOS09_LL, aliases=("FN",))
        assert catalog.get("technology", "fn") is ST_CMOS09_LL
        assert catalog.entry("technology", "fn").name == "Full-Name"

    def test_duplicate_name_rejected_without_overwrite(self, catalog):
        catalog.register("technology", "t", ST_CMOS09_LL)
        with pytest.raises(ValueError, match="already registered"):
            catalog.register("technology", "T", ST_CMOS09_LL, source="elsewhere")

    def test_same_source_reregistration_is_idempotent(self, catalog):
        catalog.register("technology", "t", ST_CMOS09_LL, source="pack.json")
        catalog.register("technology", "t", ST_CMOS09_LL, source="pack.json")
        assert len(catalog.technologies) == 1

    def test_overwrite_replaces(self, catalog):
        other = Technology(
            name="other", io=1e-6, zeta=1e-12, alpha=1.5, n=1.3,
            vdd_nominal=1.0, vth0_nominal=0.3,
        )
        catalog.register("technology", "t", ST_CMOS09_LL)
        catalog.register("technology", "t", other, overwrite=True)
        assert catalog.get("technology", "t") is other

    def test_unregister_removes_entry_and_aliases(self, catalog):
        catalog.register("technology", "t", ST_CMOS09_LL, aliases=("tt",))
        assert catalog.namespace("technology").unregister("TT")
        assert "t" not in catalog.technologies
        assert not catalog.namespace("technology").unregister("t")

    def test_miss_raises_with_known_and_suggestions(self, catalog):
        catalog.register("technology", "ST-CMOS09-LL", ST_CMOS09_LL)
        with pytest.raises(CatalogKeyError) as excinfo:
            catalog.get("technology", "st-cmos9-ll")
        error = excinfo.value
        assert "unknown technology" in str(error)
        assert "ST-CMOS09-LL" in str(error)
        assert "did you mean" in str(error)
        assert error.suggestions == ("ST-CMOS09-LL",)

    def test_miss_is_a_keyerror(self, catalog):
        with pytest.raises(KeyError):
            catalog.get("solver", "nope")

    def test_builtin_solver_typo_suggests_bounded(self):
        catalog = Catalog()
        register_builtins(catalog)
        with pytest.raises(CatalogKeyError) as excinfo:
            catalog.get("solver", "bouned")
        assert "did you mean" in str(excinfo.value)
        assert excinfo.value.suggestions == ("bounded",)

    def test_unknown_namespace_rejected(self, catalog):
        with pytest.raises(ValueError, match="unknown namespace"):
            catalog.namespace("flavours")
        with pytest.raises(ValueError, match="unknown namespace"):
            catalog.register("flavours", "x", object())

    def test_provenance_validation(self, catalog):
        with pytest.raises(ValueError, match="unknown provenance"):
            catalog.register("technology", "t", ST_CMOS09_LL, provenance="vendor")

    def test_entries_sorted_by_normalised_key(self, catalog):
        catalog.register("transform", "b-op", lambda a: a)
        catalog.register("transform", "A-op", lambda a: a)
        assert catalog.transforms.names() == ("A-op", "b-op")

    def test_rejected_registration_leaves_namespace_untouched(self, catalog):
        catalog.register("technology", "Taken", ST_CMOS09_LL, aliases=("LL",))
        fresh = ST_CMOS09_LL.scaled(name="fresh")
        with pytest.raises(ValueError, match="alias"):
            catalog.register("technology", "NewTech-X", fresh, aliases=("LL",))
        assert "newtech_x" not in catalog.technologies
        assert catalog.get("technology", "ll") is ST_CMOS09_LL

    def test_empty_lookup_is_a_miss_not_a_crash(self, catalog):
        catalog.register("technology", "t", ST_CMOS09_LL)
        with pytest.raises(CatalogKeyError, match="unknown technology ''"):
            catalog.get("technology", "")
        with pytest.raises(CatalogKeyError):
            catalog.get("technology", "   ")
        assert "" not in catalog.technologies

    def test_string_aliases_rejected(self, catalog):
        with pytest.raises(ValueError, match="list/tuple"):
            catalog.register("technology", "t", ST_CMOS09_LL, aliases="TT")

    def test_concurrent_first_reads_see_the_full_catalog(self):
        import threading
        import time

        catalog = Catalog()

        def slow_loader(cat):
            cat.register("solver", "auto", object(), provenance="builtin")
            time.sleep(0.2)
            cat.register("solver", "late", object(), provenance="builtin")

        catalog.add_loader(slow_loader)
        results = {}

        def reader(tag):
            results[tag] = catalog.solvers.names()

        first = threading.Thread(target=reader, args=("first",))
        second = threading.Thread(target=reader, args=("second",))
        first.start()
        time.sleep(0.05)  # let the first thread start loading
        second.start()
        first.join()
        second.join()
        # The second reader must block for the load, not observe the
        # half-populated catalog.
        assert results["first"] == results["second"] == ("auto", "late")

    def test_failing_loader_is_retried_and_loud(self):
        calls = []

        def bad(cat):
            calls.append(1)
            raise RuntimeError("boom")

        catalog = Catalog()
        catalog.add_loader(bad)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="boom"):
                catalog.solvers.names()
        # Not consumed-and-forgotten: every read retries, none serves a
        # silently half-populated catalog.
        assert calls == [1, 1]


class TestBuiltins:
    def test_fresh_catalog_populates_all_five_namespaces(self):
        catalog = Catalog()
        register_builtins(catalog)
        assert len(catalog.technologies) == 3
        assert len(catalog.architectures) >= 2
        assert {entry.key for entry in catalog.solvers.entries()} == {
            "auto", "bounded", "closed_form", "linearized", "numerical",
            "numerical_scalar", "vectorized",
        }
        assert len(catalog.transforms) == 3
        assert len(catalog.generators) == 13

    def test_builtins_never_clobber_earlier_user_entries(self):
        catalog = Catalog()
        mine = Technology(
            name="ST-CMOS09-LL", io=9e-6, zeta=9e-12, alpha=1.5, n=1.3,
            vdd_nominal=1.2, vth0_nominal=0.3,
        )
        catalog.register("technology", "ST-CMOS09-LL", mine)
        register_builtins(catalog)
        assert catalog.get("technology", "st_cmos09_ll") is mine

    def test_user_entry_squatting_a_builtin_alias_does_not_break_loading(self):
        # "LL" is the builtin ST-CMOS09-LL's alias; a user entry *named*
        # LL must win the name while the builtin still registers (sans
        # that alias) and population must not raise.
        catalog = Catalog()
        mine = Technology(
            name="LL", io=1e-6, zeta=1e-12, alpha=1.5, n=1.3,
            vdd_nominal=1.0, vth0_nominal=0.3,
        )
        catalog.register("technology", "LL", mine)
        register_builtins(catalog)
        assert catalog.get("technology", "ll") is mine
        assert catalog.get("technology", "st-cmos09-ll").alpha == 1.86
        assert len(catalog.solvers) == 7 and len(catalog.generators) == 13

    def test_default_catalog_lazy_loads_builtins(self):
        catalog = default_catalog()
        assert catalog.get("technology", "ll").name == "ST-CMOS09-LL"
        entry = catalog.entry("solver", "closed-form")
        assert entry.provenance == "builtin"

    def test_payload_covers_every_namespace(self):
        payload = default_catalog().payload()
        assert set(payload) == set(NAMESPACES)
        ll = payload["technology"]["st_cmos09_ll"]
        assert ll["provenance"] == "builtin"
        assert ll["value"]["alpha"] == 1.86
        assert ll["aliases"] == ["LL"]
        # code entities serialise as references
        assert payload["solver"]["auto"]["value"] == {"$ref": "auto"}


class TestSerialization:
    def test_technology_round_trip(self):
        from repro.catalog import entity_from_dict, entity_to_dict

        payload = entity_to_dict("technology", ST_CMOS09_LL)
        assert entity_from_dict("technology", payload) == ST_CMOS09_LL

    def test_reference_round_trip_returns_registered_object(self):
        from repro.catalog import entity_from_dict, entity_to_dict

        solver = default_catalog().get("solver", "auto")
        payload = entity_to_dict("solver", solver)
        assert entity_from_dict("solver", payload) is solver

    def test_bare_string_resolves(self):
        from repro.catalog import entity_from_dict

        assert entity_from_dict("technology", "LL").name == "ST-CMOS09-LL"

    def test_code_namespace_field_payload_rejected(self):
        from repro.catalog import entity_from_dict

        with pytest.raises(TypeError, match="references"):
            entity_from_dict("solver", {"name": "auto"})
