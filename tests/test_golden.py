"""Every covered output keeps the bytes recorded in tests/golden.json (see tests/golden.py),
and the kernel-free outputs keep them under the other BLAS kernels too."""

import json

import pytest

import golden

RECORDED = json.loads(golden.MANIFEST.read_text())


@pytest.fixture(scope="module")
def made():
    return golden.manifest()


def test_made_under_the_recorded_kernel_and_versions(made):
    assert {key: made[key] for key in ("kernel", "numpy", "scipy")} == {
        key: RECORDED[key] for key in ("kernel", "numpy", "scipy")
    }


def test_every_made_output_is_recorded(made):
    assert list(made["digests"]) == list(RECORDED["digests"])


@pytest.mark.parametrize("key", RECORDED["digests"])
def test_output_keeps_its_recorded_bytes(made, key):
    # a digest that moved is a changed output: regenerate with `python tests/golden.py --write`
    # only when the change is meant, and name each moved digest where the change is recorded
    assert made["digests"].get(key) == RECORDED["digests"][key]


@pytest.mark.parametrize("kernel", golden.OTHER_KERNELS)
def test_kernel_free_outputs_do_not_depend_on_the_blas_kernel(made, kernel):
    # a BLAS dot may sum in another order or with fused multiply-adds
    under = golden.kernel_free_digests_under(kernel)
    assert under == {key: made["digests"][key] for key in under}


def test_diff_lists_each_moved_digest_as_old_to_new():
    recorded = {"kept": "1", "moved": "2", "dropped": "3"}
    made = {"kept": "1", "moved": "4", "added": "5"}
    assert golden.diff(recorded, made) == ["moved: 2 -> 4", "added: - -> 5", "dropped: 3 -> -"]


@pytest.mark.parametrize("argv", [["--bogus"], ["--diff", "--write"]])
def test_an_unknown_mode_exits_with_the_usage_before_any_digest(argv):
    with pytest.raises(SystemExit, match=r"^usage: python tests/golden.py \[--write \| --diff\]$"):
        golden.main(argv)
