import numpy as np
import pytest

import semwalk.baselines
import semwalk.dataset
import semwalk.encoding
import semwalk.evaluation
import semwalk.graph
import semwalk.inference
from semwalk.dataset import DescriptorSet, parse_manifest, read_descriptor_file
from semwalk.evaluation import (
    EvalConfig,
    SyntheticSpec,
    format_report,
    format_sweep,
    gen_synthetic,
    run_lopo,
    sweep,
    sweep_configs,
    write_report,
)
from semwalk.semantics import AH, AM, AS, parse_taxonomy, semantic_classes

from _oracles import (
    einsum_fisher_gradients,
    full_sort_nearest,
    loop_markov_walk,
    loop_normalize_transitions,
    loop_read_descriptor_file,
    mask_update_centers,
)
from conftest import components_major_broadcast, expanded_distances_from_terms

SMALL_SPEC = SyntheticSpec(
    clusters=3,
    points_per_cluster=9,
    dim=4,
    separation=10.0,
    sigma=0.5,
    persons=3,
    seed=5,
    rows_per_video=6,
    synonym_clusters=1,
)

SMALL_CONFIG = EvalConfig(
    encoding="bow", gamma=4, m=50, z=3, t=4, k=1, fraction=0.5, seed=2
)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    manifest_path, taxonomy_path = gen_synthetic(SMALL_SPEC, out)
    return parse_manifest(manifest_path), parse_taxonomy(taxonomy_path)


class TestEvalConfig:
    def test_gamma_defaults_per_encoding(self):
        assert EvalConfig(encoding="bow").gamma == 256
        assert EvalConfig(encoding="fv").gamma == 10
        assert EvalConfig().gamma == 10
        assert EvalConfig(encoding="bow", gamma=3).gamma == 3

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("gamma", 0, "gamma must be >= 1, got 0"),
            ("m", -1, "m must be >= 0, got -1"),
            ("k", 0, "k must be >= 1, got 0"),
            ("z", 0, "z must be >= 1, got 0"),
            ("t", -1, "t must be >= 0, got -1"),
            ("lam", 2, r"lambda must be in \[0, 1\], got 2"),
            ("fraction", 0, r"fraction must be in \(0, 1\], got 0"),
            ("epochs", -1, "epochs must be >= 0, got -1"),
            ("step", 0, "step must be > 0, got 0"),
        ],
    )
    def test_unusable_settings_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            EvalConfig(**{field: value})

    def test_unknown_encoding_rejected(self):
        with pytest.raises(ValueError, match=r"unknown encoding 'vlad'; choose from bow\|fv"):
            EvalConfig(encoding="vlad")


class TestGenSynthetic:
    def test_zero_noise_points_equal_cluster_mean(self, tmp_path):
        spec = SyntheticSpec(
            clusters=2,
            points_per_cluster=10,
            dim=3,
            separation=4.0,
            sigma=0.0,
            persons=2,
            seed=1,
            rows_per_video=2,
            synonym_clusters=0,
        )
        manifest_path, _ = gen_synthetic(spec, tmp_path)
        ds = parse_manifest(manifest_path)
        first_cluster = read_descriptor_file(ds.segments[0].descriptor_path)
        assert np.array_equal(
            first_cluster.values, np.tile([4.0, 0.0, 0.0], (2, 1))
        )
        second_cluster = read_descriptor_file(ds.segments[10].descriptor_path)
        assert np.array_equal(
            second_cluster.values, np.tile([0.0, 4.0, 0.0], (2, 1))
        )

    def test_same_seed_byte_identical_trees(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        gen_synthetic(SMALL_SPEC, a_dir)
        gen_synthetic(SMALL_SPEC, b_dir)
        a_files = sorted(p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file())
        b_files = sorted(p.relative_to(b_dir) for p in b_dir.rglob("*") if p.is_file())
        assert a_files == b_files
        for rel in a_files:
            assert (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes()

    def test_synonym_split_class_counts(self, small_dataset):
        ds, tax = small_dataset
        cluster0 = {
            seg.meaning for seg in ds.segments[: SMALL_SPEC.points_per_cluster]
        }
        assert cluster0 == {"put.v.1", "place.v.1"}
        assert len(semantic_classes(tax, cluster0, AM)) == 2
        assert len(semantic_classes(tax, cluster0, AS)) == 1

    def test_hyponym_split_class_counts(self, tmp_path):
        spec = SyntheticSpec(
            clusters=2,
            points_per_cluster=6,
            dim=3,
            separation=5.0,
            sigma=0.1,
            persons=2,
            seed=3,
            rows_per_video=3,
            synonym_clusters=0,
            hyponym_clusters=1,
        )
        manifest_path, taxonomy_path = gen_synthetic(spec, tmp_path)
        tax = parse_taxonomy(taxonomy_path)
        labels = {"wash.v.1", "rinse.v.1"}
        assert len(semantic_classes(tax, labels, AS)) == 2
        assert len(semantic_classes(tax, labels, AH)) == 1

    def test_round_robin_persons(self, small_dataset):
        ds, _ = small_dataset
        persons = [seg.person_id for seg in ds.segments[:6]]
        assert persons == ["p0", "p1", "p2", "p0", "p1", "p2"]

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="cluster"):
            SyntheticSpec(clusters=0)
        with pytest.raises(ValueError, match="persons"):
            SyntheticSpec(persons=1)
        with pytest.raises(ValueError, match="separation"):
            SyntheticSpec(separation=0.0)


class TestRunLopo:
    def test_structure_and_hygiene(self, small_dataset):
        ds, tax = small_dataset
        report = run_lopo(ds, tax, AS, "sembed", SMALL_CONFIG)
        assert 0.0 <= report.accuracy <= 1.0
        assert len(report.records) == len(ds.segments)
        assert int(report.confusion.sum()) == len(ds.segments)
        by_person = {seg.segment_id: seg.person_id for seg in ds.segments}
        for fold in report.folds:
            assert fold.person not in fold.train_persons
            for sid in fold.train_segment_ids:
                assert by_person[sid] != fold.person
            for sid in fold.encoder_segment_ids:
                assert by_person[sid] != fold.person

    def test_encoder_trains_on_the_recorded_segments(self, small_dataset, monkeypatch):
        ds, tax = small_dataset
        trained_on = []
        train_encoder = semwalk.evaluation.train_encoder

        def recording(dataset, config, seed):
            trained_on.append(tuple(seg.segment_id for seg in dataset.segments))
            return train_encoder(dataset, config, seed)

        monkeypatch.setattr(semwalk.evaluation, "train_encoder", recording)
        report = run_lopo(ds, tax, AS, "knn", SMALL_CONFIG)
        assert len(trained_on) == len(report.folds)
        by_person = {seg.segment_id: seg.person_id for seg in ds.segments}
        for ids, fold in zip(trained_on, report.folds):
            assert ids == fold.encoder_segment_ids
            assert all(by_person[sid] != fold.person for sid in ids)

    def test_every_record_from_its_person_fold(self, small_dataset):
        ds, tax = small_dataset
        report = run_lopo(ds, tax, AS, "knn", SMALL_CONFIG)
        trained_on = {f.person: set(f.train_segment_ids) for f in report.folds}
        for rec in report.records:
            assert rec.segment_id not in trained_on[rec.person_id]

    def test_knn_duplicate_dataset_perfect(self, tmp_path):
        # Zero noise: each cluster's videos are identical, so the
        # nearest neighbor of any held-out video is its cross-person
        # duplicate.
        spec = SyntheticSpec(
            clusters=2,
            points_per_cluster=8,
            dim=3,
            separation=6.0,
            sigma=0.0,
            persons=2,
            seed=4,
            rows_per_video=3,
            synonym_clusters=0,
        )
        manifest_path, taxonomy_path = gen_synthetic(spec, tmp_path)
        ds = parse_manifest(manifest_path)
        tax = parse_taxonomy(taxonomy_path)
        config = EvalConfig(
            encoding="bow", gamma=2, m=10, k=1, fraction=1.0, seed=0
        )
        report = run_lopo(ds, tax, AM, "knn", config)
        assert report.accuracy == 1.0

    def test_deterministic_reports(self, small_dataset):
        ds, tax = small_dataset
        one = run_lopo(ds, tax, AS, "sembed", SMALL_CONFIG)
        two = run_lopo(ds, tax, AS, "sembed", SMALL_CONFIG)
        assert format_report(one) == format_report(two)

    def test_grouping_synonyms_does_not_hurt(self, small_dataset):
        ds, tax = small_dataset
        am = run_lopo(ds, tax, AM, "sembed", SMALL_CONFIG)
        as_ = run_lopo(ds, tax, AS, "sembed", SMALL_CONFIG)
        assert as_.accuracy >= am.accuracy

    def test_linear_method_runs(self, small_dataset):
        ds, tax = small_dataset
        report = run_lopo(ds, tax, AS, "linear", SMALL_CONFIG)
        assert 0.0 <= report.accuracy <= 1.0
        assert all(rec.distribution for rec in report.records)

    def test_single_person_rejected(self, tmp_path):
        from conftest import write_manifest
        from semwalk.dataset import write_descriptor_file

        rows = [("a", "p0", "put", None, "a.txt"), ("b", "p0", "put", None, "b.txt")]
        path = write_manifest(tmp_path / "m.tsv", rows)
        for sid in ("a", "b"):
            write_descriptor_file(tmp_path / f"{sid}.txt", np.ones((2, 2)))
        ds = parse_manifest(path)
        with pytest.raises(ValueError, match="2 persons"):
            run_lopo(ds, None, "verb", "knn", SMALL_CONFIG)

    def test_unknown_method(self, small_dataset):
        ds, tax = small_dataset
        with pytest.raises(ValueError, match="method"):
            run_lopo(ds, tax, AS, "oracle", SMALL_CONFIG)


class TestMetrics:
    def test_accuracy_and_confusion(self, small_dataset):
        ds, tax = small_dataset
        report = run_lopo(ds, tax, AS, "knn", SMALL_CONFIG)
        correct = sum(r.true_class == r.predicted_class for r in report.records)
        assert report.accuracy == correct / len(report.records)
        matrix = report.confusion
        assert matrix.shape == (len(report.classes), len(report.classes))
        # Row sums are per-class query counts.
        truth_counts = {}
        for rec in report.records:
            truth_counts[rec.true_class] = truth_counts.get(rec.true_class, 0) + 1
        for i, name in enumerate(report.classes):
            assert matrix[i].sum() == truth_counts.get(name, 0)


class TestSweep:
    def test_grid_cartesian_product(self, small_dataset):
        ds, tax = small_dataset
        reports = sweep(
            ds, tax, AS, "sembed", sweep_configs({"z": [1, 2], "t": [0, 1]}, SMALL_CONFIG)
        )
        assert len(reports) == 4
        assert [(r.config["z"], r.config["t"]) for r in reports] == [
            (1, 0), (1, 1), (2, 0), (2, 1)
        ]

    def test_repeated_point_identical(self, small_dataset):
        ds, tax = small_dataset
        reports = sweep(ds, tax, AS, "sembed", sweep_configs({"z": [2, 2]}, SMALL_CONFIG))
        assert reports[0].accuracy == reports[1].accuracy

    def test_format_sweep_table(self, small_dataset):
        ds, tax = small_dataset
        reports = sweep(ds, tax, AS, "knn", sweep_configs({"k": [1, 3]}, SMALL_CONFIG))
        text = format_sweep(reports)
        lines = text.strip().split("\n")
        assert lines[0] == "z\tt\tm\tgamma\tk\taccuracy"
        assert len(lines) == 3

    def test_empty_grid_rejected(self, small_dataset):
        ds, tax = small_dataset
        with pytest.raises(ValueError, match="grid"):
            sweep(ds, tax, AS, "knn", sweep_configs({}, SMALL_CONFIG))

    def test_empty_list_rejected_before_any_fold(self, small_dataset, monkeypatch):
        ds, tax = small_dataset

        def no_run(*args, **kwargs):
            raise AssertionError("run_lopo called")

        monkeypatch.setattr(semwalk.evaluation, "run_lopo", no_run)
        with pytest.raises(ValueError, match="empty sweep list for 'z'"):
            sweep(ds, tax, AS, "knn", sweep_configs({"t": [1], "z": []}, SMALL_CONFIG))

    def test_bad_value_rejected_before_any_fold(self, small_dataset, monkeypatch):
        ds, tax = small_dataset
        calls = []
        train_encoder = semwalk.evaluation.train_encoder

        def counting(*args, **kwargs):
            calls.append(args)
            return train_encoder(*args, **kwargs)

        monkeypatch.setattr(semwalk.evaluation, "train_encoder", counting)
        with pytest.raises(ValueError, match="z must be >= 1, got 0"):
            sweep(ds, tax, AS, "sembed", sweep_configs({"z": [2, 0]}, SMALL_CONFIG))
        assert calls == []

    def test_unknown_key_rejected(self, small_dataset):
        ds, tax = small_dataset
        with pytest.raises(ValueError, match="sweep key"):
            sweep(ds, tax, AS, "knn", sweep_configs({"q": [1]}, SMALL_CONFIG))

    @pytest.mark.parametrize(
        "method,grid",
        [
            ("sembed", {"gamma": [4, 6], "m": [20, 50], "z": [1, 3], "t": [0, 2]}),
            ("knn", {"gamma": [4, 6], "k": [1, 3]}),
            ("linear", {"t": [0, 2]}),
        ],
    )
    def test_each_report_equals_its_own_run_lopo(self, small_dataset, method, grid):
        ds, tax = small_dataset
        configs = sweep_configs(grid, SMALL_CONFIG)
        reports = sweep(ds, tax, AS, method, configs)
        assert len(reports) == len(configs)
        for config, report in zip(configs, reports):
            alone = run_lopo(ds, tax, AS, method, config)
            assert format_report(report) == format_report(alone)
            assert report.folds == alone.folds

    def test_fold_shares_encoders_and_graphs(self, small_dataset, monkeypatch):
        ds, tax = small_dataset
        calls = {"train_encoder": 0, "build_svg": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(semwalk.evaluation, "train_encoder")
        counting(semwalk.graph, "build_svg")
        grid = {"gamma": [4, 6], "m": [20, 50], "z": [1, 3]}
        reports = sweep(ds, tax, AS, "sembed", sweep_configs(grid, SMALL_CONFIG))
        assert len(reports) == 8
        # 3 folds: one encoder per (fold, gamma), one graph per (fold, gamma, m).
        assert calls == {"train_encoder": 6, "build_svg": 12}


    @pytest.mark.parametrize(
        "method,grid,module,name",
        [
            ("linear", {"t": [0, 3]}, semwalk.baselines, "train_weighted_linear"),
            ("sembed", {"k": [1, 3]}, semwalk.inference, "classify_batch"),
        ],
        ids=["linear", "sembed"],
    )
    def test_fold_shares_records_across_settings_the_method_ignores(
        self, small_dataset, monkeypatch, method, grid, module, name
    ):
        ds, tax = small_dataset
        calls = []
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        configs = sweep_configs(grid, SMALL_CONFIG)
        reports = sweep(ds, tax, AS, method, configs)
        monkeypatch.undo()
        assert len(calls) == 3  # one per fold, not one per (fold, config)
        for config, report in zip(configs, reports):
            assert format_report(report) == format_report(run_lopo(ds, tax, AS, method, config))


class TestFisherKernels:
    @pytest.fixture(scope="class")
    def noisy_dataset(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("noisy")
        manifest_path, taxonomy_path = gen_synthetic(
            SyntheticSpec(sigma=10.0, seed=1), out
        )
        return parse_manifest(manifest_path), parse_taxonomy(taxonomy_path)

    @pytest.mark.parametrize("method", ["knn", "sembed", "linear"])
    def test_predictions_equal_under_the_oracle_kernels(
        self, noisy_dataset, monkeypatch, method
    ):
        # The expanded E-step and the sufficient-statistics Fisher
        # gradients move the encodings in their last digits only: every
        # prediction stays the broadcast/einsum kernels' one.
        ds, tax = noisy_dataset
        config = EvalConfig(encoding="fv", gamma=6)
        fast = run_lopo(ds, tax, AS, method, config)
        monkeypatch.setattr(semwalk.encoding, "_log_gaussians", components_major_broadcast)
        monkeypatch.setattr(semwalk.encoding, "fisher_gradients", einsum_fisher_gradients)
        slow = run_lopo(ds, tax, AS, method, config)
        assert [r.predicted_class for r in fast.records] == [
            r.predicted_class for r in slow.records
        ]
        assert fast.accuracy == slow.accuracy < 1.0


class TestOracleKernels:
    """Whole LOPO runs as shipped against the same runs with every kernel
    whose oracle must give the same bits swapped for it."""

    @pytest.fixture(scope="class", params=[1, 2])
    def noisy_dataset(self, request, tmp_path_factory):
        out = tmp_path_factory.mktemp(f"noisy{request.param}")
        manifest_path, taxonomy_path = gen_synthetic(
            SyntheticSpec(sigma=10.0, seed=request.param), out
        )
        return manifest_path, parse_manifest(manifest_path), parse_taxonomy(taxonomy_path)

    @pytest.mark.parametrize("encoding_name,gamma", [("bow", 16), ("fv", 6)])
    @pytest.mark.parametrize("method", ["knn", "sembed"])
    def test_same_records_under_the_oracle_kernels(
        self, noisy_dataset, monkeypatch, method, encoding_name, gamma
    ):
        manifest_path, ds, tax = noisy_dataset
        config = EvalConfig(encoding=encoding_name, gamma=gamma)
        shipped = run_lopo(ds, tax, AS, method, config)
        read = []

        def loop_reader(path):
            read.append(path)
            return DescriptorSet(values=loop_read_descriptor_file(path))

        monkeypatch.setattr(semwalk.dataset, "read_descriptor_file", loop_reader)
        # A fresh parse has an empty descriptor cache, so the loop reader
        # loads every descriptor the oracle run uses.
        ds = parse_manifest(manifest_path)
        monkeypatch.setattr(semwalk.encoding, "_squared_distances", expanded_distances_from_terms)
        monkeypatch.setattr(semwalk.inference, "shortlist", full_sort_nearest)
        monkeypatch.setattr(semwalk.baselines, "shortlist", full_sort_nearest)
        monkeypatch.setattr(semwalk.encoding, "_update_centers", mask_update_centers)
        monkeypatch.setattr(semwalk.graph, "normalize_transitions", loop_normalize_transitions)
        monkeypatch.setattr(semwalk.inference, "markov_walk", loop_markov_walk)
        oracle = run_lopo(ds, tax, AS, method, config)
        assert [(r.predicted_class, r.distribution) for r in shipped.records] == [
            (r.predicted_class, r.distribution) for r in oracle.records
        ]
        assert shipped.accuracy == oracle.accuracy < 1.0
        assert len(read) == len(ds)


class TestReportFile:
    def test_report_layout(self, small_dataset, tmp_path):
        ds, tax = small_dataset
        report = run_lopo(ds, tax, AS, "sembed", SMALL_CONFIG)
        path = tmp_path / "report.txt"
        write_report(report, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[:13] == [
            "method=sembed", "mode=as", "encoding=bow", "gamma=4", "m=50", "z=3",
            "t=4", "k=1", "lambda=0.5", "fraction=0.5", "epochs=100", "step=0.1",
            "seed=2",
        ]
        assert lines[13].startswith("record\t")
        records = [ln for ln in lines if ln.startswith("record\t")]
        assert len(records) == len(ds.segments)
        assert any(ln.startswith("accuracy=") for ln in lines)
        assert any(ln.startswith("classes\t") for ln in lines)
        confusion_rows = [ln for ln in lines if ln.startswith("confusion\t")]
        assert len(confusion_rows) == len(report.classes)

    def test_records_in_manifest_order(self, small_dataset):
        ds, tax = small_dataset
        report = run_lopo(ds, tax, AS, "knn", SMALL_CONFIG)
        assert [rec.segment_id for rec in report.records] == [
            seg.segment_id for seg in ds.segments
        ]
