"""Reference implementations the library's fast paths are tested against."""
