"""Call-graph construction: function registry and call-site resolution."""

from pathlib import Path

from repro.statcheck.callgraph import Project

FIXTURES_A = Path(__file__).parent / "fixtures_analyzers"


def _project(tmp_path, sources: dict[str, str]) -> Project:
    for rel, src in sources.items():
        path = tmp_path / "src" / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(src)
    return Project.load([tmp_path / "src"], root=tmp_path)


def _callee_names(graph, qname):
    return {s.callee for s in graph.callees_of(qname) if s.callee is not None}


class TestRegistry:
    def test_qnames_cover_functions_and_methods(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "solvers/mod.py": (
                    "def helper(x):\n"
                    "    return x\n"
                    "\n"
                    "class Solver:\n"
                    "    def step(self, x):\n"
                    "        return helper(x)\n"
                )
            },
        )
        graph = project.callgraph
        assert "repro.solvers.mod:helper" in graph.functions
        assert "repro.solvers.mod:Solver.step" in graph.functions
        info = graph.functions["repro.solvers.mod:Solver.step"]
        assert info.class_name == "Solver"
        assert info.params == ["self", "x"]

    def test_parse_errors_are_collected_not_raised(self, tmp_path):
        project = _project(tmp_path, {"solvers/bad.py": "def broken(:\n"})
        assert len(project.errors) == 1
        assert "SyntaxError" in project.errors[0]


class TestResolution:
    def test_module_local_function_call(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "solvers/mod.py": (
                    "def helper(x):\n"
                    "    return x\n"
                    "\n"
                    "def caller(x):\n"
                    "    return helper(x)\n"
                )
            },
        )
        graph = project.callgraph
        assert _callee_names(graph, "repro.solvers.mod:caller") == {
            "repro.solvers.mod:helper"
        }
        assert graph.callers_of("repro.solvers.mod:helper") == {
            "repro.solvers.mod:caller"
        }

    def test_self_method_call(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "solvers/mod.py": (
                    "class Solver:\n"
                    "    def inner(self, x):\n"
                    "        return x\n"
                    "    def outer(self, x):\n"
                    "        return self.inner(x)\n"
                )
            },
        )
        graph = project.callgraph
        assert _callee_names(graph, "repro.solvers.mod:Solver.outer") == {
            "repro.solvers.mod:Solver.inner"
        }

    def test_cross_module_import_call(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "solvers/lib.py": "def work(x):\n    return x\n",
                "solvers/use.py": (
                    "from repro.solvers.lib import work\n"
                    "\n"
                    "def driver(x):\n"
                    "    return work(x)\n"
                ),
            },
        )
        graph = project.callgraph
        assert _callee_names(graph, "repro.solvers.use:driver") == {
            "repro.solvers.lib:work"
        }

    def test_unique_method_name_resolves_across_classes(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "solvers/mod.py": (
                    "class Smoother:\n"
                    "    def smooth_once(self, x):\n"
                    "        return x\n"
                    "\n"
                    "def driver(sm, x):\n"
                    "    return sm.smooth_once(x)\n"
                )
            },
        )
        graph = project.callgraph
        assert graph.resolve_method("smooth_once") == "repro.solvers.mod:Smoother.smooth_once"
        assert _callee_names(graph, "repro.solvers.mod:driver") == {
            "repro.solvers.mod:Smoother.smooth_once"
        }

    def test_builtin_method_names_never_resolve(self, tmp_path):
        # A project class defining the only ``append`` method must not
        # capture list.append calls elsewhere in the tree.
        project = _project(
            tmp_path,
            {
                "solvers/mod.py": (
                    "class Writer:\n"
                    "    def append(self, x):\n"
                    "        return x\n"
                    "\n"
                    "def collect(items):\n"
                    "    out = []\n"
                    "    for i in items:\n"
                    "        out.append(i)\n"
                    "    return out\n"
                )
            },
        )
        graph = project.callgraph
        assert graph.resolve_method("append") is None
        assert _callee_names(graph, "repro.solvers.mod:collect") == set()

    def test_ambiguous_method_name_stays_opaque(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "solvers/mod.py": (
                    "class A:\n"
                    "    def run_pass(self, x):\n"
                    "        return x\n"
                    "class B:\n"
                    "    def run_pass(self, x):\n"
                    "        return x\n"
                )
            },
        )
        graph = project.callgraph
        assert graph.resolve_method("run_pass") is None


class TestFixtureTree:
    def test_analyzer_fixture_tree_builds_a_graph(self):
        project = Project.load([FIXTURES_A], root=FIXTURES_A)
        graph = project.callgraph
        assert "repro.solvers.alloc_case:alloc_in_loop" in graph.functions
        assert "repro.comm.batched:fill_loop_is_clean" in graph.functions
        # The interprocedural edge the allocation analyzer's summary follows.
        assert "repro.solvers.alloc_case:_fresh" in _callee_names(
            graph, "repro.solvers.alloc_case:calls_allocator_in_loop"
        )
