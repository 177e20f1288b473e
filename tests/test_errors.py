import re

import pytest

from ethikit.errors import UnusablePath, reading


class TestReading:
    @pytest.mark.parametrize("exc, message", [
        (IsADirectoryError(21, "Is a directory"), "data.csv: is a directory, not a file"),
        (PermissionError(13, "Permission denied"), "data.csv: permission denied"),
        (UnicodeDecodeError("utf-8", b"\xe9", 0, 1, "invalid continuation byte"),
         "data.csv: not UTF-8 text (invalid continuation byte)"),
        (FileExistsError(17, "File exists"), "data.csv: a file stands where a directory"),
        (NotADirectoryError(20, "Not a directory"), "data.csv: a file stands where a directory"),
        (FileNotFoundError(2, "No such file or directory"), "data.csv: no such file or directory"),
    ])
    def test_maps_to_unreadable_file(self, exc, message):
        with pytest.raises(UnusablePath, match=re.escape(message)) as info:
            with reading("data.csv"):
                raise exc
        assert info.value.__cause__ is exc

    def test_other_errors_pass_through(self):
        # a full disk says nothing about the path, so it is not an UnusablePath
        with pytest.raises(OSError, match="No space left on device"):
            with reading("data.csv"):
                raise OSError(28, "No space left on device")
