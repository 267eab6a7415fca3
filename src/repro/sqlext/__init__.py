"""Extended-SQL front-end: SKYLINE clause parsing, analysis, execution."""
from .parser import ParsedSkylineQuery, parse_skyline_query  # noqa: F401
from .engine import sky_sql  # noqa: F401
