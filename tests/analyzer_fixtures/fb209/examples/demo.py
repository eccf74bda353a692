from repro.core.work import scripted

scripted()
