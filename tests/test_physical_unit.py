"""The worker-side archive freeze (``physical._freeze_spark_archives``), without Spark.

The helper is called the way a Python worker calls it, over importers
placed in ``sys.path_importer_cache`` by hand: zips inside a fake
``SPARK_HOME`` (reached through a symlink, as a versioned install
usually is), one outside it, one under the ``SparkFiles`` root inside
the install, and a directory importer.
"""
import importlib.machinery
import sys
import zipfile
import zipimport

import pytest
from pyspark import SparkFiles

from repro.core import physical

FROZEN = physical._FrozenZipImporter


def make_zip(path, *modules: str) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(path, "w") as zf:
        for m in modules or ("mod",):
            zf.writestr(f"{m}.py", "VALUE = 1\n")
    return str(path)


@pytest.fixture
def install(tmp_path, monkeypatch):
    """A fake Spark installation ``spark-9.9.9`` with ``SPARK_HOME`` set to
    a symlink to it; the importer cache entries a test adds, the
    ``SparkFiles`` root and the module flag are restored afterwards."""
    real = tmp_path / "spark-9.9.9"
    real.mkdir()
    (tmp_path / "spark").symlink_to(real, target_is_directory=True)
    monkeypatch.setenv("SPARK_HOME", str(tmp_path / "spark"))
    monkeypatch.setattr(SparkFiles, "_root_directory", str(real / "work" / "userFiles"))
    monkeypatch.setattr(physical, "_spark_archives_frozen", False)

    def cache(path: str, importer):
        monkeypatch.setitem(sys.path_importer_cache, path, importer)
        return importer

    return real, cache


def test_only_install_archives_are_frozen(tmp_path, install):
    real, cache = install
    importers = {
        # The jar is cached under its resolved path, pyspark.zip through the symlink.
        "jar": make_zip(real / "jars" / "spark-core.jar"),
        "lib": make_zip(tmp_path / "spark" / "python" / "lib" / "pyspark.zip"),
        "outside": make_zip(tmp_path / "elsewhere" / "dep.zip"),
        "added": make_zip(real / "work" / "userFiles" / "added.zip"),
    }
    importers = {k: cache(p, zipimport.zipimporter(p)) for k, p in importers.items()}
    importers["dir"] = cache(str(tmp_path), importlib.machinery.FileFinder(str(tmp_path)))

    physical._freeze_spark_archives()

    assert {k: type(v) for k, v in importers.items()} == {
        "jar": FROZEN, "lib": FROZEN, "outside": zipimport.zipimporter,
        "added": zipimport.zipimporter, "dir": importlib.machinery.FileFinder}
    assert importers["lib"].find_spec("mod") is not None


def test_second_call_changes_nothing(install):
    real, cache = install
    first = cache(p := make_zip(real / "a.zip"), zipimport.zipimporter(p))
    physical._freeze_spark_archives()
    later = cache(p := make_zip(real / "b.zip"), zipimport.zipimporter(p))
    physical._freeze_spark_archives()
    assert type(first) is FROZEN
    assert type(later) is zipimport.zipimporter


def test_frozen_importer_keeps_its_directory(tmp_path, install):
    real, cache = install
    inside = cache(p := make_zip(real / "in.zip"), zipimport.zipimporter(p))
    outside = cache(q := make_zip(tmp_path / "out.zip"), zipimport.zipimporter(q))
    physical._freeze_spark_archives()
    make_zip(real / "in.zip", "mod", "new")
    make_zip(tmp_path / "out.zip", "mod", "new")
    for importer in (inside, outside):
        importer.invalidate_caches()
    assert inside.find_spec("new") is None
    assert outside.find_spec("new") is not None
