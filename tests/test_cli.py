import json
from pathlib import Path

import pytest

import hyperlin.blowup as blowup
import hyperlin.gallery as gallery
from hyperlin.ambient import affine_space
from hyperlin.blowup import BlowupChainSpec, impose_chain
from hyperlin.cli import JobError, main, run_job
from hyperlin.fields import rationals
from hyperlin.linsys import LinearSys


def write_job(tmp_path, data, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def base_job(**overrides):
    data = {
        "field": {"kind": "rationals"},
        "ambient": {"kind": "affine", "dim": 2},
        "system": {"degree": 3},
    }
    data.update(overrides)
    return data


def test_run_complete_system_summary(tmp_path, capsys):
    rc = main(["run", write_job(tmp_path, base_job())])
    out = capsys.readouterr().out
    assert rc == 0
    assert "A^2 over QQ, degree 3" in out
    assert "nsections: 10" in out


def test_run_impose_points_matches_library(tmp_path, capsys):
    job = base_job(
        field={"kind": "gf", "p": 7},
        ambient={"kind": "projective", "dim": 2},
        system={"degree": 3},
        operations=[
            {
                "op": "impose-points",
                "points": [[1, 1, 1], [1, 2, 4]],
                "multiplicities": [1, 2],
            }
        ],
    )
    rc = main(["run", write_job(tmp_path, job), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    # 1 simple + 1 double point on cubics: 10 - 1 - 3 sections
    assert payload["nsections"] == 6
    assert payload["ambient"] == "P^2 over GF(7)"


def test_run_chain_job_lists_sections(tmp_path, capsys):
    job = base_job(
        system={"degree": 4},
        operations=[
            {
                "op": "impose-chain",
                "chains": [
                    {"point": [0, 0], "mults": [2, 2], "tangents": [[1, 1]]},
                    {
                        "point": [2, 3],
                        "mults": [2, 1, 1],
                        "tangents": [[1, 1], [1, 0]],
                    },
                ],
            }
        ],
        output={"sections": True},
    )
    rc = main(["run", write_job(tmp_path, job)])
    out = capsys.readouterr().out
    assert rc == 0

    A2 = affine_space(rationals(), 2)
    direct = impose_chain(
        LinearSys.complete(A2, 4),
        [
            BlowupChainSpec((0, 0), [2, 2], [(1, 1)]),
            BlowupChainSpec((2, 3), [2, 1, 1], [(1, 1), (1, 0)]),
        ],
    )
    assert "nsections: 4" in out
    for s in direct.sections():
        assert f"  {s}" in out


def test_run_trace_needs_saturated_flag(tmp_path, capsys):
    job = base_job(
        field={"kind": "gf", "p": 7},
        ambient={"kind": "projective", "dim": 2},
        system={"degree": 3},
        operations=[
            {"op": "trace", "generators": ["x^2+y^2+z^2"], "saturated": False}
        ],
    )
    rc = main(["run", write_job(tmp_path, job)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "saturated" in err


def test_run_trace_on_conic(tmp_path, capsys):
    job = base_job(
        field={"kind": "gf", "p": 7},
        ambient={"kind": "projective", "dim": 2},
        system={"degree": 3},
        operations=[
            {"op": "trace", "generators": ["x^2+y^2+z^2"], "saturated": True}
        ],
        output={"sections": True},
    )
    rc = main(["run", write_job(tmp_path, job), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    # cubics modulo (conic)*(linears): 10 - 3
    assert payload["nsections"] == 7
    # the trace of a complete system has a basis of distinct monomials
    sections = payload["sections"]
    assert len(set(sections)) == 7
    assert all("+" not in s and "-" not in s and not s[0].isdigit() for s in sections)


def test_run_containment_op(tmp_path, capsys):
    job = base_job(
        operations=[{"op": "containment", "generators": ["x^2-y"]}],
    )
    rc = main(["run", write_job(tmp_path, job), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    # cubics divisible by x^2 - y: (x^2 - y) * {1, x, y}
    assert payload["nsections"] == 3


def test_run_image_system_finds_the_conic(tmp_path, capsys):
    job = {
        "field": {"kind": "rationals"},
        "ambient": {"kind": "projective", "dim": 1, "names": ["s", "t"]},
        "system": {"degree": 2},
        "operations": [
            {
                "op": "image-system",
                "components": ["s^2", "s*t", "t^2"],
                "target": {"kind": "projective", "dim": 2, "names": ["a", "b", "c"]},
                "degree": 2,
            }
        ],
        "output": {"sections": True},
    }
    rc = main(["run", write_job(tmp_path, job)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "nsections: 1" in out
    assert "-b^2+a*c" in out


def test_run_matrix_system(tmp_path, capsys):
    job = base_job(
        field={"kind": "gf", "p": 5},
        system={
            "degree": 2,
            "monomials": ["x^2", "x*y", "y^2"],
            "matrix": [[1, 0, 4], [0, 1, 0]],
        },
    )
    rc = main(["run", write_job(tmp_path, job), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["nsections"] == 2


def test_unknown_keys_are_rejected_with_location(tmp_path, capsys):
    job = base_job(
        operations=[{"op": "impose-points", "points": [[0, 0]], "mults": [1]}]
    )
    rc = main(["run", write_job(tmp_path, job)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "job.operations[0]" in err
    assert "mults" in err

    job = base_job(extra=1)
    rc = main(["run", write_job(tmp_path, job)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "unknown key(s): extra" in err


def test_missing_keys_are_reported(tmp_path, capsys):
    rc = main(["run", write_job(tmp_path, {"field": {"kind": "rationals"}})])
    err = capsys.readouterr().err
    assert rc == 2
    assert "missing key(s): ambient, system" in err

    job = base_job(operations=[{"op": "impose-points", "points": [[0, 0]]}])
    rc = main(["run", write_job(tmp_path, job)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "multiplicities" in err


def test_parse_errors_carry_their_path(tmp_path, capsys):
    job = base_job(
        operations=[{"op": "containment", "generators": ["x^2 + bogus"]}]
    )
    rc = main(["run", write_job(tmp_path, job)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "job.operations[0].generators[0]" in err

    job = base_job(
        system={"degree": 2, "monomials": ["x+y"], "matrix": [[1]]}
    )
    rc = main(["run", write_job(tmp_path, job)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "not a monomial" in err


def test_bad_field_and_ambient_kinds(tmp_path, capsys):
    rc = main(["run", write_job(tmp_path, base_job(field={"kind": "real"}))])
    assert rc == 2
    assert "job.field" in capsys.readouterr().err

    rc = main(["run", write_job(tmp_path, base_job(ambient={"kind": "torus", "dim": 2}))])
    assert rc == 2
    assert "job.ambient" in capsys.readouterr().err


def test_run_job_raises_job_error_directly():
    with pytest.raises(JobError, match=r"job\.system"):
        run_job({"field": {"kind": "rationals"},
                 "ambient": {"kind": "affine", "dim": 2},
                 "system": {}})


_POINTS = {"op": "impose-points", "points": [[0, 0]], "multiplicities": [1]}
_TRACE = {"op": "trace", "generators": ["x^2-y"], "saturated": True}
_IMAGE = {"op": "image-system", "components": ["x", "y"], "degree": 1,
          "target": {"kind": "affine", "dim": 2}}


@pytest.mark.parametrize("job, location, message", [
    # every key of another operation, or of another kind of system
    (base_job(operations=[dict(_POINTS, generators=["x"])]), "job.operations[0]", "unknown key(s): generators"),
    (base_job(operations=[dict(_POINTS, degree=2)]), "job.operations[0]", "unknown key(s): degree"),
    (base_job(operations=[dict(_POINTS, saturated=True)]), "job.operations[0]", "unknown key(s): saturated"),
    (base_job(operations=[_POINTS, dict(_TRACE, points=[[0, 0]])]), "job.operations[1]", "unknown key(s): points"),
    (base_job(operations=[dict(_TRACE, multiplicities=[1])]), "job.operations[0]", "unknown key(s): multiplicities"),
    (base_job(operations=[{"op": "impose-chain", "chains": [], "target": {}}]), "job.operations[0]",
     "unknown key(s): target"),
    (base_job(operations=[{"op": "containment", "components": ["x"]}]), "job.operations[0]",
     "unknown key(s): components"),
    (base_job(operations=[dict(_IMAGE, saturated=True)]), "job.operations[0]", "'saturated' needs 'generators'"),
    (base_job(operations=[{"op": "blow-up"}]), "job.operations[0]", "unknown operation 'blow-up'"),
    (base_job(operations=[{"points": []}]), "job.operations[0]", "missing key(s): op"),
    (base_job(system={"sections": ["x"], "matrix": [[1]], "monomials": ["x"]}), "job.system",
     "unknown key(s): matrix, monomials"),
    (base_job(system={"sections": ["x"], "monomials": ["x"]}), "job.system", "unknown key(s): monomials"),
    (base_job(system={"degree": 2, "monomials": ["x"]}), "job.system", "unknown key(s): monomials"),
    (base_job(system={"monomials": ["x"]}), "job.system", "unknown key(s): monomials"),
    (base_job(system={"degree": 2, "matrix": [[1]]}), "job.system", "missing key(s): monomials"),
    (base_job(field={"kind": "rationals", "p": 7}), "job.field", "unknown key(s): p"),
    (base_job(ambient={"kind": "affine", "dim": 2, "dims": [1, 1]}), "job.ambient", "unknown key(s): dims"),
    (base_job(ambient={"kind": "product", "dims": [1, 1], "dim": 2}), "job.ambient", "unknown key(s): dim"),
    (base_job(ambient={"kind": "projective"}), "job.ambient", "missing key(s): dim"),
    # a matrix system's monomials: repeated, or off its stated degree
    (base_job(ambient={"kind": "projective", "dim": 2}, system={"matrix": [[1, 1], [1, 2]],
              "monomials": ["x^2", "x^2"]}), "job.system", "repeated monomial"),
    (base_job(ambient={"kind": "projective", "dim": 2}, system={"degree": 3, "matrix": [[1]],
              "monomials": ["x^2"]}), "job.system", "monomial (2, 0, 0) does not fit degree 3"),
    # a job's monomials are strings of the ambient's ring: a fractional exponent does not parse
    (base_job(ambient={"kind": "projective", "dim": 2}, system={"matrix": [[1]],
              "monomials": ["x^2.5"]}), "job.system.monomials[0]", "cannot parse 'x^2.5'"),
])
def test_every_key_is_honoured_or_rejected(tmp_path, capsys, job, location, message):
    rc = main(["run", write_job(tmp_path, job)])
    assert rc == 2
    assert f"{location}: {message}" in capsys.readouterr().err


def test_a_job_monomial_is_one_term_with_coefficient_one(tmp_path, capsys):
    # "3*y" was read as y and the job ran
    job = base_job(field={"kind": "gf", "p": 7}, ambient={"kind": "projective", "dim": 2},
                   system={"matrix": [["1"]], "monomials": ["3*y"]})
    rc = main(["run", write_job(tmp_path, job)])
    assert rc == 2
    assert "job.system.monomials[0]: " in capsys.readouterr().err


_CHAIN = {"point": [1, 2], "mults": [2, 1], "tangents": [[1, 0]]}


@pytest.mark.parametrize("operation, location, message", [
    # a float or bool multiplicity was truncated, a bool coordinate read as 0 or 1
    (dict(_POINTS, multiplicities=[2.5]), "job.operations[0]", "multiplicities must be integers, got 2.5"),
    (dict(_POINTS, multiplicities=[True]), "job.operations[0]", "multiplicities must be integers, got True"),
    ({"op": "impose-chain", "chains": [dict(_CHAIN, mults=[2.7, 1])]}, "job.operations[0].chains[0]",
     "multiplicities must be integers, got 2.7"),
    ({"op": "impose-chain", "chains": [dict(_CHAIN, mults=[2, False])]}, "job.operations[0].chains[0]",
     "multiplicities must be integers, got False"),
    ({"op": "impose-chain", "chains": [_CHAIN, dict(_CHAIN, point=[True, 2])]}, "job.operations[0].chains[1]",
     "bool is not a field element"),
    ({"op": "impose-chain", "chains": [dict(_CHAIN, tangents=[[1, False]])]}, "job.operations[0].chains[0]",
     "bool is not a field element"),
    ({"op": "impose-chain", "chains": [dict(_CHAIN, point=[1.5, 2])]}, "job.operations[0].chains[0]",
     "cannot coerce 1.5"),
])
def test_non_integer_multiplicities_and_bool_coordinates_are_rejected(tmp_path, capsys, operation, location, message):
    rc = main(["run", write_job(tmp_path, base_job(operations=[operation]))])
    assert rc == 2
    assert f"{location}: {message}" in capsys.readouterr().err


def test_chain_coordinates_read_ints_and_strings(tmp_path, capsys):
    job = base_job(system={"degree": 4}, operations=[
        {"op": "impose-chain", "chains": [dict(_CHAIN, point=[1, "2"], tangents=[["1/2", 1]])]}])
    rc = main(["run", write_job(tmp_path, job), "--json"])
    A2 = affine_space(rationals(), 2)
    direct = impose_chain(LinearSys.complete(A2, 4), [BlowupChainSpec((1, 2), [2, 1], [(1, 2)])])
    assert rc == 0 and json.loads(capsys.readouterr().out)["nsections"] == direct.nsections() == 11


def test_image_system_takes_saturated_with_generators(tmp_path, capsys):
    # the image of the parabola y = x^2 under the identity: the conics
    # through it are the multiples of b - a^2
    job = base_job(operations=[dict(_IMAGE, degree=2, generators=["y-x^2"], saturated=True)])
    rc = main(["run", write_job(tmp_path, job), "--json"])
    assert rc == 0 and json.loads(capsys.readouterr().out)["nsections"] == 1


def test_missing_or_invalid_job_file(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["run", str(bad)])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_repro_pass_exits_zero(capsys):
    rc = main(["repro", "quadrifolium"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "result: PASS" in out
    assert gallery.QUADRIFOLIUM_STRING in out


def test_repro_mismatch_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(gallery, "QUADRIFOLIUM_STRING", "x^6+y^6")
    rc = main(["repro", "quadrifolium"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "result: FAIL" in out


def test_repro_tacnode_cusp(capsys):
    rc = main(["repro", "tacnode-cusp", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["ok"] is True
    assert payload["nsections"] == 4
    assert payload["tacnode"] == [2, 2]
    assert payload["cusp"] == [2, 1, 1]


_REPRO_NAMES = ("quadrifolium", "tacnode-cusp", "points-gf397", "plane-deg20", "trace-p6",
                "quintic-30-31", "quintic-cusps", "sextic-pencil-lift")


def test_repro_stdout_is_pinned(capsys):
    # the eight named reproductions at seed 0, in this order, print exactly
    # the pinned report: any change in what the library computes shows here
    out = []
    for name in _REPRO_NAMES:
        assert main(["repro", name, "--seed", "0"]) == 0
        out.append(capsys.readouterr().out)
    pinned = (Path(__file__).parent / "repro_seed0.txt").read_text()
    assert "".join(out) == pinned


def test_repro_unknown_name_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["repro", "septic-surprise"])
    assert exc.value.code == 2


def test_json_reports_are_byte_identical(capsys):
    main(["repro", "tacnode-cusp", "--json"])
    first = capsys.readouterr().out
    main(["repro", "tacnode-cusp", "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_scan_cli_is_deterministic(capsys):
    argv = ["scan", "--family", "z6", "--q", "101", "--trials", "2",
            "--target", "cusps15", "--seed", "3"]
    rc = main(argv)
    first = capsys.readouterr().out
    assert rc == 0
    assert "scan z6 over GF(101)" in first
    main(argv)
    assert capsys.readouterr().out == first


def test_scan_cli_reports_matches(capsys):
    rc = main(["scan", "--family", "z5", "--q", "101", "--trials", "250",
               "--target", "nodes30", "--stop-after", "1", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["trials"] == 212
    assert len(payload["matches"]) == 1
    match = payload["matches"][0]
    assert match["trial"] == 211
    assert match["count"] == 30
    assert match["histogram"] == {"A1": 30}


@pytest.mark.parametrize("option, value, message", [
    ("--trials", "-2", "trials must be nonnegative, got -2"),
    ("--stop-after", "0", "stop_after must be at least 1, got 0"),
    ("--stop-after", "-1", "stop_after must be at least 1, got -1"),
])
def test_scan_cli_refuses_negative_trials_and_stop_after(capsys, option, value, message):
    argv = ["scan", "--family", "z5", "--q", "101", "--trials", "1", "--target", "nodes30"]
    rc = main(argv + [option, value])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert message in captured.err


def test_lift_job_validation(tmp_path, capsys):
    path = tmp_path / "lift.json"
    path.write_text(json.dumps({"task": "sextic-pencil-lift", "bogus": 1}))
    rc = main(["lift", "--job", str(path)])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err

    path.write_text(json.dumps({"task": "quartic-lift"}))
    rc = main(["lift", "--job", str(path)])
    assert rc == 2
    assert "unknown lift task" in capsys.readouterr().err

    rc = main(["lift", "--primes", "59,sixty-one"])
    assert rc == 2
    assert "--primes" in capsys.readouterr().err

    bad = (("start_prime", 1), ("max_primes", 0), ("max_primes", "3"), ("start_prime", True),
           ("target_modulus", "big"))
    for key, value in bad:
        path.write_text(json.dumps({"task": "sextic-pencil-lift", key: value}))
        rc = main(["lift", "--job", str(path)])
        assert rc == 2
        assert f"job.{key}" in capsys.readouterr().err


def test_lift_job_honours_start_prime_and_max_primes(tmp_path, capsys, monkeypatch):
    path = tmp_path / "lift.json"
    # one real scan at 59: a single prime cannot reach the target modulus
    path.write_text(json.dumps({"task": "sextic-pencil-lift", "max_primes": 1}))
    assert main(["lift", "--job", str(path)]) == 2
    assert "not enough usable primes" in capsys.readouterr().err
    # the primes scanned, recorded by a stand-in scan that finds nothing
    scanned = []
    monkeypatch.setattr(blowup, "sextic_pencil_scan", lambda p: scanned.append(p) or [])
    path.write_text(json.dumps({"task": "sextic-pencil-lift", "start_prime": 100, "max_primes": 2}))
    assert main(["lift", "--job", str(path)]) == 2
    assert scanned == [101, 103]
    assert "no usable primes" in capsys.readouterr().err
