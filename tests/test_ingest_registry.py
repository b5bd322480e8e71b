"""Ingested traces as first-class workloads: registry, CLI, campaigns."""

import numpy as np
import pytest

from repro.cli import main
from repro.ingest import ArraySource, RTraceSource, convert_to_rtrace
from repro.store import ArtifactStore, publish_trace
from repro.workloads import build_workload, ingested_apps, register_trace
from repro.workloads.registry import _REGISTERED_TRACES
from repro.workloads.trace import Trace


@pytest.fixture(autouse=True)
def clean_registry():
    yield
    _REGISTERED_TRACES.clear()


def make_rtrace(path, n=2000, seed=0):
    rng = np.random.default_rng(seed)
    trace = Trace(
        lines=rng.integers(0, 256, n),
        regions=rng.integers(0, 3, n).astype(np.int32),
        instructions=n * 10.0,
        region_names={0: "x", 1: "y", 2: "z"},
    )
    convert_to_rtrace(ArraySource.from_trace(trace), path)
    return trace


class TestRegistry:
    def test_register_and_build(self, tmp_path):
        path = tmp_path / "ext.rtrace"
        trace = make_rtrace(path)
        register_trace("ext", path)
        workload = build_workload("ext")
        assert workload.name == "ext"
        assert np.array_equal(workload.trace.lines, trace.lines)
        assert np.array_equal(workload.trace.regions, trace.regions)
        assert workload.trace.region_names == trace.region_names
        assert "ext" in ingested_apps()

    def test_builtin_name_collision_rejected(self, tmp_path):
        path = tmp_path / "bzip2.rtrace"
        make_rtrace(path)
        with pytest.raises(ValueError, match="built-in"):
            register_trace("bzip2", path)

    def test_missing_archive_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            register_trace("ghost", tmp_path / "ghost.rtrace")

    def test_unknown_name_lists_ingested(self, tmp_path):
        path = tmp_path / "ext.rtrace"
        make_rtrace(path)
        register_trace("ext", path)
        with pytest.raises(ValueError, match="ingested: ext"):
            build_workload("no-such-app")

    def test_scale_and_seed_ignored_for_ingested(self, tmp_path):
        path = tmp_path / "ext.rtrace"
        make_rtrace(path)
        register_trace("ext", path)
        a = build_workload("ext", scale="train", seed=1)
        b = build_workload("ext", scale="ref", seed=2)
        assert np.array_equal(a.trace.lines, b.trace.lines)


def stored_archive(name):
    """The store's archive bound to ``name``, or None."""
    store = ArtifactStore()
    binding = store.resolve_name(name)
    if binding is None:
        return None
    return store.get("traces", binding["fingerprint"])


class TestIngestCLI:
    def export_csv(self, path, n=500, seed=1):
        rng = np.random.default_rng(seed)
        trace = Trace(
            lines=rng.integers(0, 64, n),
            regions=rng.integers(0, 2, n).astype(np.int32),
            instructions=n * 5.0,
        )
        from repro.ingest import write_trace_file

        write_trace_file(path, ArraySource.from_trace(trace), "csv")
        return trace

    def test_convert_inspect_validate(self, tmp_path, capsys):
        src = tmp_path / "t.csv"
        dst = tmp_path / "t.rtrace"
        self.export_csv(src)
        assert main(
            ["ingest", "convert", str(src), str(dst), "--apki", "10"]
        ) == 0
        assert main(["ingest", "inspect", str(dst)]) == 0
        out = capsys.readouterr().out
        assert "format: rtrace" in out
        assert "fingerprint" in out
        assert main(["ingest", "validate", str(dst)]) == 0

    def test_validate_parses_a_text_capture_once(self, tmp_path, monkeypatch, capsys):
        # Opening a text capture parses every line; validation reports
        # that count instead of parsing the capture a second time.
        from repro.ingest.formats import CSVSource, _csv_parser

        src = tmp_path / "t.csv"
        self.export_csv(src, n=500)
        parsed = []

        def counting_parser():
            parse = _csv_parser()

            def counted(line):
                parsed.append(line)
                return parse(line)

            return counted

        monkeypatch.setattr(CSVSource, "line_parser", staticmethod(counting_parser))
        assert main(["ingest", "validate", str(src)]) == 0
        assert "OK" in capsys.readouterr().out
        assert len(parsed) == len(src.read_text().splitlines())

    def test_validate_catches_tampering(self, tmp_path, capsys):
        import zipfile

        src = tmp_path / "t.csv"
        dst = tmp_path / "t.rtrace"
        self.export_csv(src)
        main(["ingest", "convert", str(src), str(dst), "--apki", "10"])
        with zipfile.ZipFile(dst) as zf:
            members = {n: zf.read(n) for n in zf.namelist()}
        name = "chunk_000000.regions.npy"
        members[name] = members[name][:-1] + bytes([members[name][-1] ^ 1])
        with zipfile.ZipFile(dst, "w") as zf:
            for n, payload in members.items():
                zf.writestr(n, payload)
        assert main(["ingest", "validate", str(dst)]) == 1
        assert "fingerprint" in capsys.readouterr().err

    def test_register_and_run_resolution(self, tmp_path, store_env):
        src = tmp_path / "t.csv"
        self.export_csv(src)
        assert main(
            ["ingest", "register", str(src), "--name", "cliapp", "--apki", "8"]
        ) == 0
        assert stored_archive("cliapp") is not None
        assert build_workload("cliapp").name == "cliapp"

    def test_register_without_instructions_fails(
        self, tmp_path, store_env, capsys
    ):
        src = tmp_path / "t.csv"
        self.export_csv(src)
        rc = main(["ingest", "register", str(src)])
        assert rc == 2
        assert "instruction count" in capsys.readouterr().err
        assert stored_archive("t") is None

    def test_convert_without_destination_fails(self, tmp_path, capsys):
        src = tmp_path / "t.csv"
        self.export_csv(src)
        assert main(["ingest", "convert", str(src)]) == 2

    def test_missing_input_fails_cleanly(self, tmp_path):
        assert main(["ingest", "inspect", str(tmp_path / "nope.csv")]) == 2

    def test_register_builtin_name_refused(self, tmp_path, store_env, capsys):
        # A trace named after a built-in would be shadowed by the
        # registry's builder-first resolution — refuse up front.
        src = tmp_path / "t.csv"
        self.export_csv(src)
        rc = main(
            ["ingest", "register", str(src), "--name", "mcf", "--apki", "8"]
        )
        assert rc == 2
        assert "built-in" in capsys.readouterr().err
        assert stored_archive("mcf") is None

    def test_register_rtrace_honours_apki_override(
        self, tmp_path, store_env, capsys
    ):
        # Regression: the fast copy path used to ignore --apki, making
        # the "re-run with --instructions or --apki" advice a dead end.
        src = tmp_path / "t.csv"
        self.export_csv(src)
        bare = tmp_path / "bare.rtrace"
        assert main(["ingest", "convert", str(src), str(bare)]) == 0
        rc = main(
            ["ingest", "register", str(bare), "--name", "fixed", "--apki", "8"]
        )
        assert rc == 0
        registered = RTraceSource(stored_archive("fixed"))
        assert registered.instructions == registered.n_records * 1000.0 / 8

    def test_failed_reregistration_keeps_existing_archive(
        self, tmp_path, store_env, capsys
    ):
        # Regression: register used to overwrite the destination before
        # its instruction-count check, so a failed re-registration
        # destroyed a working archive.
        src = tmp_path / "t.csv"
        self.export_csv(src)
        assert main(
            ["ingest", "register", str(src), "--name", "keeper",
             "--apki", "8"]
        ) == 0
        binding = ArtifactStore().resolve_name("keeper")
        good = stored_archive("keeper").read_bytes()
        rc = main(
            ["ingest", "register", str(src), "--name", "keeper"]
        )  # no instruction count
        assert rc == 2
        assert ArtifactStore().resolve_name("keeper") == binding
        assert stored_archive("keeper").read_bytes() == good
        assert not list((store_env / "tmp").iterdir())

    def test_staging_leftovers_never_listed(self, tmp_path, store_env):
        # A crash-leftover staging temp (or any dotfile) must not
        # surface as a phantom workload.
        make_rtrace(tmp_path / "real.rtrace", n=100)
        publish_trace(ArtifactStore(), tmp_path / "real.rtrace", name="real")
        (store_env / "tmp").mkdir()
        (store_env / "tmp" / ".ghost.123.rtrace-tmp").write_bytes(b"partial")
        (store_env / "names" / ".hidden.json").write_text("{}")
        assert ingested_apps() == ["real"]

    @pytest.mark.parametrize("fmt", ["rtrace", "csv"])
    @pytest.mark.parametrize(
        "name", ["../x", "<abs>", "a/b", "a\\b", ".x", ""]
    )
    def test_register_rejects_names_outside_the_index(
        self, tmp_path, store_env, capsys, name, fmt
    ):
        # Bound, these wrote <store>/x.json, a file outside the store, a
        # nested directory, or a binding no listing shows.
        if name == "<abs>":
            name = str(tmp_path / "abs" / "x")
        src = tmp_path / f"in.{fmt}"
        if fmt == "rtrace":
            make_rtrace(src)  # published as is
            flags = []
        else:
            self.export_csv(src)  # converted in <store>/tmp/ first
            flags = ["--apki", "8"]
        before = sorted(tmp_path.rglob("*"))
        rc = main(["ingest", "register", str(src), "--name", name, *flags])
        assert rc == 2
        assert "invalid workload name" in capsys.readouterr().err
        store = ArtifactStore()
        for call in (
            lambda: store.bind_name(name, "traces", "ab" * 16),
            lambda: store.resolve_name(name),
            lambda: register_trace(name, src),
            lambda: publish_trace(store, src, name=name),
        ):
            with pytest.raises(ValueError, match="invalid workload name"):
                call()
        assert sorted(tmp_path.rglob("*")) == before  # nothing written

    def test_convert_malformed_capture_fails_before_writing(
        self, tmp_path, capsys
    ):
        # The sized reader parses the whole capture when it opens, so
        # the error names the capture's line, whatever the chunk size.
        src = tmp_path / "t.jsonl"
        src.write_text(
            '{"addr": 64}\n{"addr": 128}\n{"addr": 192}\n{"addr": 1.5}\n'
        )
        dst = tmp_path / "out.csv"
        rc = main(
            ["ingest", "convert", str(src), str(dst), "--chunk-records", "2"]
        )
        assert rc == 2
        assert f"{src}:4: 'addr' must be a JSON integer" in (
            capsys.readouterr().err
        )
        assert not dst.exists()

    def test_convert_alloc_log_to_regionless_format_refused(
        self, tmp_path, capsys
    ):
        src = tmp_path / "t.csv"
        self.export_csv_static(src)
        rc = main(
            ["ingest", "convert", str(src), str(tmp_path / "t.lackey"),
             "--alloc-log", str(tmp_path / "nonexistent.jsonl")]
        )
        assert rc == 2
        assert "--alloc-log" in capsys.readouterr().err

    @staticmethod
    def export_csv_static(path, n=100, seed=2):
        rng = np.random.default_rng(seed)
        trace = Trace(
            lines=rng.integers(0, 64, n),
            regions=rng.integers(0, 2, n).astype(np.int32),
            instructions=n * 5.0,
        )
        from repro.ingest import write_trace_file

        write_trace_file(path, ArraySource.from_trace(trace), "csv")

    def test_convert_to_interchange_rejects_pipeline_flags(
        self, tmp_path, capsys
    ):
        # Regression: --instructions/--dedup used to be silently dropped
        # when the destination was not an .rtrace archive.
        src = tmp_path / "t.csv"
        self.export_csv(src)
        rc = main(
            ["ingest", "convert", str(src), str(tmp_path / "t.mtrace"),
             "--instructions", "5000", "--dedup"]
        )
        assert rc == 2
        assert ".rtrace" in capsys.readouterr().err


class TestIngestedCampaign:
    def test_campaign_grid_over_ingested_trace(self, tmp_path, store_env):
        # The campaign engine resolves apps through build_workload, so a
        # trace bound in the store is sweepable like any built-in
        # benchmark, in every worker.
        make_rtrace(tmp_path / "extcamp.rtrace", n=1500)
        publish_trace(
            ArtifactStore(), tmp_path / "extcamp.rtrace", name="extcamp"
        )

        from repro.exp import Campaign, ResultStore, run_campaign

        campaign = Campaign(
            name="ingested",
            apps=["extcamp"],
            schemes=["Jigsaw", "LRU"],
            scale="train",
        )
        store_path = tmp_path / "store.jsonl"
        report = run_campaign(campaign, store_path, workers=1)
        assert report.executed == 2
        assert not report.failures
        store = ResultStore(store_path)
        assert len(store) == 2
