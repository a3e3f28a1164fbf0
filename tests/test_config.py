"""Tests for EngineConfig validation."""

import pytest

from repro.config import POLICIES, EngineConfig


def test_default_policy_is_valid():
    assert EngineConfig().policy in POLICIES


@pytest.mark.parametrize("policy", POLICIES)
def test_all_policies_accepted(policy):
    assert EngineConfig(policy=policy).policy == policy


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="unknown policy"):
        EngineConfig(policy="magic")


def test_bad_budget_rejected():
    with pytest.raises(ValueError, match="memory_budget_bytes"):
        EngineConfig(memory_budget_bytes=0)


def test_bad_eviction_policy_rejected():
    with pytest.raises(ValueError, match="eviction policy"):
        EngineConfig(eviction_policy="random")


def test_resolve_splitfile_dir_creates_and_reuses(tmp_path):
    cfg = EngineConfig(splitfile_dir=tmp_path / "splits")
    d1 = cfg.resolve_splitfile_dir()
    assert d1.exists()
    assert cfg.resolve_splitfile_dir() == d1


def test_resolve_splitfile_dir_defaults_to_tempdir():
    cfg = EngineConfig()
    d = cfg.resolve_splitfile_dir()
    assert d.exists()
    assert "repro-splitfiles" in d.name
