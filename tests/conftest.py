"""Test settings shared by every test module."""

from hypothesis import settings

# Local runs keep Hypothesis's defaults but print the blob that replays a
# failing example (@reproduce_failure), so a draw that fails once and then
# passes can still be rerun.  On CI Hypothesis loads its own "ci" profile,
# which prints the blob too.
settings.register_profile("local", print_blob=True)
if settings.get_current_profile_name() != "ci":
    settings.load_profile("local")
