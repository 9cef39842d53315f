"""Tests for the service wire layer: strict submission parsing.

Every field of a job submission must fail with the exact named error the
corresponding CLI flag would produce, at parse time — and unknown fields are
rejected outright, so a typo'd field can never silently run with a default.
"""

import pytest

from repro.service import JobRequest, parse_job_request, parse_port


class TestParseJobRequest:
    def test_empty_object_plans_everything(self):
        request = parse_job_request({})
        assert request == JobRequest()
        assert request.manifest_keys() is None

    def test_experiments_and_bench_sets_combine(self):
        request = parse_job_request(
            {"experiments": ["figure1"], "bench_sets": ["unconditional"]})
        assert request.manifest_keys() == ["figure1", "bench:unconditional"]

    def test_bare_bench_set_plans_only_the_selector(self):
        request = parse_job_request({"bench_sets": ["spec:2"]})
        assert request.manifest_keys() == ["bench:spec:2"]

    def test_non_object_body_rejected(self):
        with pytest.raises(ValueError, match="must be a JSON object"):
            parse_job_request([1, 2, 3])

    def test_unknown_field_rejected_and_named(self):
        # The service-shaped version of the silent REPRO_SCALE fallback:
        # a typo'd field must never run with the default it shadowed.
        with pytest.raises(ValueError, match="unknown field.*'repetitons'"):
            parse_job_request({"repetitons": 3})

    @pytest.mark.parametrize("raw", [[], ["  "], [1], "figure1"])
    def test_bad_experiment_list_rejected(self, raw):
        with pytest.raises(ValueError, match="'experiments' must be a "
                                             "non-empty list"):
            parse_job_request({"experiments": raw})

    def test_bad_scale_names_the_field(self):
        with pytest.raises(ValueError, match="field 'scale' must be a "
                                             "number"):
            parse_job_request({"scale": "abc"})

    def test_scale_clamped_like_the_cli_flag(self):
        assert parse_job_request({"scale": 0.001}).scale == 0.05

    def test_bad_repetitions_names_the_field(self):
        with pytest.raises(ValueError, match="field 'repetitions'"):
            parse_job_request({"repetitions": 0})

    @pytest.mark.parametrize("raw", ["python", "numpy", 7])
    def test_backend_is_an_unknown_field(self, raw):
        # There is one execution path; the retired backend field is
        # rejected like any typo, and the error lists the real fields.
        with pytest.raises(ValueError) as excinfo:
            parse_job_request({"backend": raw})
        message = str(excinfo.value)
        assert "unknown field(s) 'backend'" in message
        assert ("(known: experiments, bench_sets, scale, repetitions)"
                in message)

    def test_source_attribution_propagates(self):
        with pytest.raises(ValueError, match="^POST body field 'scale'"):
            parse_job_request({"scale": -1}, source="POST body")

    def test_to_wire_round_trips(self):
        request = parse_job_request(
            {"experiments": ["figure1"], "scale": 0.25, "repetitions": 3})
        assert parse_job_request(request.to_wire()) == request

    def test_to_wire_omits_defaults(self):
        assert JobRequest().to_wire() == {}


class TestParsePort:
    def test_valid_and_zero(self):
        assert parse_port("8378") == 8378
        assert parse_port(0) == 0  # OS-assigned; the serve banner reports it

    @pytest.mark.parametrize("raw", ["abc", None, 1.5])
    def test_non_integer_rejected(self, raw):
        with pytest.raises(ValueError, match="REPRO_SERVE_PORT must be an "
                                             "integer port"):
            parse_port(raw)

    @pytest.mark.parametrize("raw", [-1, 65536])
    def test_out_of_range_rejected(self, raw):
        with pytest.raises(ValueError, match=r"\[0, 65535\]"):
            parse_port(raw, source="--port")

    def test_source_named(self):
        with pytest.raises(ValueError, match="^--port"):
            parse_port("x", source="--port")
