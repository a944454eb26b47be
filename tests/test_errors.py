"""The exception hierarchy: one root, correct subsystem parents."""

import inspect

import pytest

import repro.errors as errors


ALL_ERRORS = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
              if issubclass(cls, Exception)]


class TestHierarchy:
    def test_everything_derives_from_repro_error(self):
        for cls in ALL_ERRORS:
            assert issubclass(cls, errors.ReproError), cls

    def test_subsystem_parents(self):
        assert issubclass(errors.PacketError, errors.CodecError)
        assert issubclass(errors.TransportClosedError, errors.TransportError)
        assert issubclass(errors.AddressError, errors.TransportError)
        assert issubclass(errors.SubscriptionNotFoundError,
                          errors.MatchingError)
        assert issubclass(errors.NotAMemberError, errors.BusError)
        assert issubclass(errors.DuplicateMemberError, errors.BusError)
        assert issubclass(errors.AuthenticationError, errors.DiscoveryError)
        assert issubclass(errors.PolicyParseError, errors.PolicyError)
        assert issubclass(errors.PolicyConflictError, errors.PolicyError)
        assert issubclass(errors.AuthorisationDenied, errors.PolicyError)

    def test_one_catch_all_is_enough(self):
        with pytest.raises(errors.ReproError):
            raise errors.DiscoveryError("x")
        with pytest.raises(errors.ReproError):
            raise errors.SimulationError("x")

    def test_parse_error_location_formatting(self):
        error = errors.PolicyParseError("bad token", line=3, column=7)
        assert "line 3" in str(error)
        assert error.line == 3 and error.column == 7

    def test_parse_error_without_location(self):
        error = errors.PolicyParseError("no on clause")
        assert "line" not in str(error)
