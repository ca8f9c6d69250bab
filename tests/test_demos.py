"""Byte-identity guard for the demos: each must print, and draw, what it did.

Every demo runs from a copy in a temporary directory, so the charts demo
05 writes land there and not in the repository. The sha256 of each
demo's stdout and of each SVG was recorded before the race verdict moved
into ``verify_tau_race`` and the SVG tooltips moved onto the shared
rational formatter.
"""

import hashlib
import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

STDOUT_SHA256 = {
    "01_interval_arithmetic.py": "ebe4e56a6355393463139bd9f234bcc216527c02cd106316f1241ed1baad29b1",
    "02_discrete_races.py": "4f14dadd90bd6ffa815f6d66584be380422609a6e546d50a35ce6af6452d7fad",
    "03_prescribed_differences.py": "71f39f6f7d543ba8353380295a7ab812d680213d3e2329c7a51e48e0dc213588",
    "04_order_realization.py": "2834813dc418c2db221f41b010b7c264a5db285d0105fcdd34c293b9db68a045",
    "05_plot_gallery.py": "dcbab3d485f36dc960df5b439e54c68e92b83dad4dfa7d15dd8602f61f852109",
}

SVG_SHA256 = {
    "lead_flip.svg": "d98557b288801ba2ed5cb9fd7b0c056181f26f919968eb08ca58e6f75be3f760",
    "prescribed_pair.svg": "ab400efde45e86b686d3f0efdc0413a21d98de17f4926f0f5e4f590478864902",
}


def sha256_of(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_demo(name, tmp_path, monkeypatch, capsys) -> str:
    """Run one demo from a copy in ``tmp_path`` and return its stdout."""
    shutil.copy(DEMOS / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)  # demo 05 then writes to ./output/
    runpy.run_path(name, run_name="__main__")
    return capsys.readouterr().out


def test_every_demo_is_guarded():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_prints_the_same(name, tmp_path, monkeypatch, capsys):
    out = run_demo(name, tmp_path, monkeypatch, capsys)
    assert sha256_of(out.encode()) == STDOUT_SHA256[name]


def test_gallery_draws_the_same(tmp_path, monkeypatch, capsys):
    run_demo("05_plot_gallery.py", tmp_path, monkeypatch, capsys)
    drawn = {p.name: sha256_of(p.read_bytes()) for p in (tmp_path / "output").glob("*.svg")}
    assert drawn == SVG_SHA256
