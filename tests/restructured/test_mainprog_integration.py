"""run_concurrent integration: link spec, host mapping, process engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.manifold import ConfigSpec, HostMapper, parse_config
from repro.restructured import TaskInstanceEngine, run_concurrent
from repro.restructured.mainprog import DEFAULT_MLINK
from repro.sparsegrid import SequentialApplication

CONFIG_TEXT = """
{host h1 diplice.sen.cwi.nl}
{host h2 alboka.sen.cwi.nl}
{host h3 altfluit.sen.cwi.nl}
{host h4 arghul.sen.cwi.nl}
{host h5 basfluit.sen.cwi.nl}
{host h6 cimbalom.sen.cwi.nl}
{host h7 dulcimer.sen.cwi.nl}
{host h8 erhu.sen.cwi.nl}
{locus mainprog $h1 $h2 $h3 $h4 $h5 $h6 $h7 $h8}
"""


class TestHostMapping:
    def test_tasks_receive_hosts(self):
        mapper = HostMapper(parse_config(CONFIG_TEXT), "bumpa.sen.cwi.nl")
        result, task_manager = run_concurrent(
            root=2, level=1, tol=1e-3,
            link_spec_text=DEFAULT_MLINK,
            host_mapper=mapper,
            timeout=120,
        )
        assert result.n_workers == 3
        hosts = {t.host for t in task_manager.instances()}
        assert "bumpa.sen.cwi.nl" in hosts  # the start-up machine
        assert all(h is not None for h in hosts)

    def test_hosts_freed_after_run(self):
        mapper = HostMapper(parse_config(CONFIG_TEXT), "bumpa.sen.cwi.nl")
        run_concurrent(
            root=2, level=1, tol=1e-3,
            link_spec_text=DEFAULT_MLINK,
            host_mapper=mapper,
            timeout=120,
        )
        # wind-down killed all tasks; their machines were released
        assert mapper.hosts_in_use() == []


class TestProcessEngine:
    def test_caller_owned_engine_not_closed(self):
        engine = TaskInstanceEngine()
        try:
            run_concurrent(root=2, level=0, tol=1e-3, engine=engine, timeout=120)
            # the engine must still be usable: run_concurrent did not
            # close what it does not own
            from repro.restructured.worker import SubsolveJobSpec

            payload = engine.compute(
                SubsolveJobSpec(
                    problem_name="rotating-cone", root=2, l=0, m=0,
                    tol=1e-3, t_end=0.25,
                )
            )
            assert payload.solution.shape == (5, 5)
        finally:
            engine.close()


class TestProblemSelection:
    def test_named_problem_with_kwargs(self):
        result, _ = run_concurrent(
            root=2, level=1, tol=1e-3,
            problem_name="manufactured",
            problem_kwargs={"diffusion": 0.05},
            timeout=120,
        )
        assert result.n_workers == 3

    def test_scheme_propagates_to_workers(self):
        upwind, _ = run_concurrent(root=2, level=1, tol=1e-3, timeout=120)
        central, _ = run_concurrent(
            root=2, level=1, tol=1e-3, scheme="central", timeout=120
        )
        assert not np.array_equal(upwind.combined, central.combined)
