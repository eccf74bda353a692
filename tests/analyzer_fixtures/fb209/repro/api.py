from repro.core.work import run

__all__ = ["run"]
