"""Reference implementations that tests and perf smokes check fast paths against."""
