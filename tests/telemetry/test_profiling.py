"""The structured harness logger."""

import io

from repro.telemetry import TelemetryLogger
from repro.telemetry.logger import get_logger


class TestTelemetryLogger:
    def test_format_and_fields(self):
        stream = io.StringIO()
        logger = TelemetryLogger("report", stream=stream)
        logger.info("fig10 done (1.2s)")
        logger.info("trace written", records=5, dropped=0)
        lines = stream.getvalue().splitlines()
        assert lines[0] == "[report] fig10 done (1.2s)"
        assert lines[1] == "[report] trace written records=5 dropped=0"

    def test_level_filtering(self):
        stream = io.StringIO()
        logger = TelemetryLogger("x", level="warning", stream=stream)
        logger.debug("hidden")
        logger.info("hidden")
        logger.warning("shown")
        assert stream.getvalue() == "[x] shown\n"

    def test_get_logger_interns_by_name(self):
        assert get_logger("a") is get_logger("a")
        assert get_logger("a") is not get_logger("b")
