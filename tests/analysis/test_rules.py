"""Every rule catches its planted fixture — exact id, exact line —
and stays silent on the clean twin."""


def hits(findings, rule):
    return [(f.path, f.line) for f in findings if f.rule == rule]


# -- DET01 --------------------------------------------------------------------


def test_det01_catches_wall_clock_calls(analyze_files):
    findings = analyze_files(
        {"src/repro/net/example.py": "det01_violation.py"}
    )
    assert hits(findings, "DET01") == [
        ("src/repro/net/example.py", 7),
        ("src/repro/net/example.py", 11),
    ]


def test_det01_clean_and_wallclock_module_allowed(analyze_files):
    findings = analyze_files(
        {
            "src/repro/net/example.py": "det01_clean.py",
            # The allowlisted module itself may read the wall clock.
            "src/repro/obs/wallclock.py": "det01_violation.py",
        }
    )
    assert hits(findings, "DET01") == []


# -- DET02 --------------------------------------------------------------------


def test_det02_catches_unseeded_randomness(analyze_files):
    findings = analyze_files(
        {"src/repro/net/example.py": "det02_violation.py"}
    )
    assert hits(findings, "DET02") == [
        ("src/repro/net/example.py", 8),
        ("src/repro/net/example.py", 12),
    ]


def test_det02_seeded_stream_and_crypto_allowed(analyze_files):
    findings = analyze_files(
        {
            "src/repro/net/example.py": "det02_clean.py",
            # crypto/ is the one legitimate os.urandom consumer.
            "src/repro/crypto/keys.py": "det02_violation.py",
        }
    )
    assert hits(findings, "DET02") == []


# -- VER01 --------------------------------------------------------------------


def test_ver01_catches_unverified_adoption(analyze_files):
    findings = analyze_files(
        {"src/repro/core/superlight.py": "ver01_violation.py"}
    )
    assert hits(findings, "VER01") == [
        ("src/repro/core/superlight.py", 9),
    ]


def test_ver01_verified_adoption_is_clean(analyze_files):
    findings = analyze_files(
        {"src/repro/core/superlight.py": "ver01_clean.py"}
    )
    assert hits(findings, "VER01") == []


def test_ver01_client_state_has_one_producer(analyze_files):
    """Verified-then-assigned is enough for the gateway's ``current``;
    the superlight client's state may only come from adopt_bundle()."""
    findings = analyze_files(
        {"src/repro/net/gateway.py": "ver01_dominated.py"}
    )
    assert hits(findings, "VER01") == []
    findings = analyze_files(
        {"src/repro/core/superlight.py": "ver01_dominated.py"}
    )
    assert hits(findings, "VER01") == [
        ("src/repro/core/superlight.py", 18),  # .state write
        ("src/repro/core/superlight.py", 18),  # ClientState(...) built
    ]


def test_ver01_only_fires_in_trust_scopes(analyze_files):
    findings = analyze_files(
        {"src/repro/net/example.py": "ver01_violation.py"}
    )
    assert hits(findings, "VER01") == []


# -- ERR01 --------------------------------------------------------------------


def test_err01_catches_taxonomy_holes_and_untyped_raises(analyze_files):
    findings = analyze_files(
        {
            "src/repro/errors.py": "err01_errors_violation.py",
            "src/repro/net/raiser.py": "err01_raiser_violation.py",
        }
    )
    assert hits(findings, "ERR01") == [
        ("src/repro/errors.py", 8),  # MissingCodeError: no own code
        ("src/repro/errors.py", 16),  # SecondError: duplicate code
        ("src/repro/net/raiser.py", 7),  # bare ReproError
        ("src/repro/net/raiser.py", 11),  # unregistered *Error
    ]


def test_err01_clean_taxonomy_and_typed_raises(analyze_files):
    findings = analyze_files(
        {
            "src/repro/errors.py": "err01_errors_clean.py",
            "src/repro/net/raiser.py": "err01_raiser_clean.py",
        }
    )
    assert hits(findings, "ERR01") == []


def test_err01_ignores_test_modules(analyze_files):
    findings = analyze_files(
        {
            "src/repro/errors.py": "err01_errors_clean.py",
            "tests/net/test_raiser.py": "err01_raiser_violation.py",
        }
    )
    assert hits(findings, "ERR01") == []


# -- BND01 --------------------------------------------------------------------


def test_bnd01_catches_unbounded_container(analyze_files):
    findings = analyze_files(
        {"src/repro/net/rpc.py": "bnd01_violation.py"}
    )
    assert hits(findings, "BND01") == [("src/repro/net/rpc.py", 6)]


def test_bnd01_eviction_maxlen_and_heappop_count_as_bounds(analyze_files):
    findings = analyze_files({"src/repro/net/rpc.py": "bnd01_clean.py"})
    assert hits(findings, "BND01") == []


def test_bnd01_only_fires_in_bounded_scopes(analyze_files):
    findings = analyze_files(
        {"src/repro/chain/example.py": "bnd01_violation.py"}
    )
    assert hits(findings, "BND01") == []


# -- WIRE01 -------------------------------------------------------------------


def test_wire01_catches_mutable_and_untested_messages(analyze_files):
    findings = analyze_files(
        {"src/repro/net/messages.py": "wire01_violation.py"}
    )
    assert hits(findings, "WIRE01") == [
        ("src/repro/net/messages.py", 7),  # MutableMessage: not frozen
        ("src/repro/net/messages.py", 7),  # MutableMessage: no test ref
        ("src/repro/net/messages.py", 12),  # UntestedMessage: no test ref
    ]


def test_wire01_frozen_and_referenced_is_clean(analyze_files):
    findings = analyze_files(
        {
            "src/repro/net/messages.py": "wire01_clean.py",
            "tests/net/test_roundtrip.py": (
                "from repro.net.messages import TestedMessage\n\n\n"
                "def test_round_trip():\n"
                "    assert TestedMessage(seq=1).seq == 1\n"
            ),
        }
    )
    assert hits(findings, "WIRE01") == []


# -- OBS01 --------------------------------------------------------------------


def test_obs01_catches_bad_metric_names(analyze_files):
    findings = analyze_files(
        {"src/repro/net/example.py": "obs01_violation.py"}
    )
    assert hits(findings, "OBS01") == [
        ("src/repro/net/example.py", 7),  # single segment, uppercase
        ("src/repro/net/example.py", 8),  # f-string with no static prefix
    ]


def test_obs01_grammar_conforming_names_are_clean(analyze_files):
    findings = analyze_files(
        {"src/repro/net/example.py": "obs01_clean.py"}
    )
    assert hits(findings, "OBS01") == []


# -- CAT01 --------------------------------------------------------------------


def test_cat01_catches_both_directions(analyze_files):
    findings = analyze_files(
        {
            "src/repro/fault/crashpoints.py": "cat01_catalog_violation.py",
            "src/repro/storage/wal.py": "cat01_planter_violation.py",
        }
    )
    assert hits(findings, "CAT01") == [
        # cataloged but planted nowhere
        ("src/repro/fault/crashpoints.py", 5),
        # planted but not cataloged
        ("src/repro/storage/wal.py", 8),
    ]


def test_cat01_planted_catalog_is_clean(analyze_files):
    findings = analyze_files(
        {
            "src/repro/fault/crashpoints.py": "cat01_catalog_clean.py",
            "src/repro/storage/wal.py": "cat01_planter_clean.py",
        }
    )
    assert hits(findings, "CAT01") == []
