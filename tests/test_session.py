"""Tests for analysis sessions (navigation, persistence)."""

import pytest

from repro.core import Anomaly, WorkersInState, WorkerState
from repro.session import AnalysisSession


@pytest.fixture
def session(seidel_trace_small):
    return AnalysisSession(seidel_trace_small, width=400, height=128)


class TestNavigation:
    def test_initial_view_fits_trace(self, session, seidel_trace_small):
        assert session.view.start == seidel_trace_small.begin
        assert session.view.end == seidel_trace_small.end

    def test_zoom_and_back(self, session):
        original = session.view
        session.zoom(4.0)
        assert session.view.duration < original.duration
        restored = session.back()
        assert restored == original

    def test_back_forward_symmetry(self, session):
        session.zoom(2.0)
        zoomed = session.view
        session.back()
        assert session.forward() == zoomed

    def test_back_on_empty_history_is_noop(self, session):
        view = session.view
        assert session.back() == view

    def test_new_navigation_clears_future(self, session):
        session.zoom(2.0)
        session.back()
        session.scroll(0.5)
        # The forward stack was invalidated by the scroll.
        assert session.forward() == session.view

    def test_goto_and_reset(self, session, seidel_trace_small):
        session.goto(100, 200)
        assert (session.view.start, session.view.end) == (100, 200)
        session.reset_view()
        assert session.view.end == seidel_trace_small.end

    def test_goto_anomaly_frames_interval(self, session):
        anomaly = Anomaly(kind="idle-phase", severity=1.0, start=1000,
                          end=2000, description="test")
        session.goto_anomaly(anomaly, margin=0.5)
        assert session.view.start == 500
        assert session.view.end == 2500


class TestUniformSessionApi:
    """The navigation/statistics/render vocabulary the CLI and the
    trace service both speak (see `repro.service.api`)."""

    def test_navigate_dispatches_every_action(self, session):
        original = session.view
        assert session.navigate("zoom", factor=2.0) \
            == session.view
        assert session.view.duration < original.duration
        session.navigate("scroll", fraction=0.25)
        session.navigate("goto", start=100, end=900)
        assert (session.view.start, session.view.end) == (100, 900)
        session.navigate("back")
        session.navigate("forward")
        assert (session.view.start, session.view.end) == (100, 900)
        assert session.navigate("reset") == original

    def test_navigate_covers_the_declared_vocabulary(self, session):
        assert set(session.NAVIGATION_ACTIONS) \
            == {"zoom", "scroll", "goto", "back", "forward", "reset"}

    def test_navigate_rejects_unknown_action(self, session):
        with pytest.raises(ValueError, match="zoom"):
            session.navigate("teleport")

    def test_navigate_missing_parameter_is_key_error(self, session):
        with pytest.raises(KeyError):
            session.navigate("goto", start=100)

    def test_view_state_is_json_shaped(self, session):
        state = session.view_state()
        assert sorted(state) == ["end", "height", "start", "width"]
        assert all(type(value) is int for value in state.values())
        assert (state["width"], state["height"]) == (400, 128)

    def test_statistics_default_to_view_window(self, session):
        session.goto(1_000, 5_000)
        stats = session.statistics()
        assert (stats["start"], stats["end"]) == (1_000, 5_000)

    def test_statistics_explicit_window_and_state_names(self, session):
        stats = session.statistics(start=0, end=10_000)
        assert (stats["start"], stats["end"]) == (0, 10_000)
        assert stats["tasks"] >= 0
        names = {state.name.lower() for state in WorkerState}
        assert set(stats["state_cycles"]) <= names
        assert "running" in stats["state_cycles"]

    def test_render_frame_accepts_name_and_object(self, session):
        from repro.render import StateMode
        by_name = session.render_frame("state")
        by_object = session.render_frame(StateMode())
        assert (by_name.width, by_name.height) == (400, 128)
        assert (by_name.pixels == by_object.pixels).all()

    def test_render_frame_rejects_unknown_mode(self, session):
        with pytest.raises(ValueError, match="unknown timeline mode"):
            session.render_frame("sideways")


class TestAnnotations:
    def test_annotate_at_view_center(self, session):
        session.goto(1000, 2000)
        note = session.annotate("interesting")
        assert note.timestamp == 1500
        assert session.visible_annotations() == [note]

    def test_annotations_out_of_view_hidden(self, session):
        session.annotate("early", timestamp=session.trace.begin)
        session.goto(session.trace.end - 10, session.trace.end)
        assert session.visible_annotations() == []


class TestPersistence:
    def test_save_load_roundtrip(self, session, seidel_trace_small,
                                 tmp_path):
        session.zoom(4.0)
        session.scroll(0.25)
        session.annotate("note one", author="alice")
        session.metrics.add(WorkersInState(int(WorkerState.IDLE)))
        path = tmp_path / "session.json"
        session.save(str(path))

        restored = AnalysisSession.load(str(path), seidel_trace_small)
        assert restored.view == session.view
        assert len(restored.annotations) == 1
        assert list(restored.annotations)[0].author == "alice"
        assert restored.metrics.names() == session.metrics.names()
        # History survives: back() restores the pre-scroll view.
        previous = restored.back()
        assert previous.duration == session.view.duration

    def test_load_rejects_unknown_version(self, seidel_trace_small,
                                          tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99}')
        with pytest.raises(ValueError):
            AnalysisSession.load(str(path), seidel_trace_small)

    def test_loaded_session_still_navigates(self, session,
                                            seidel_trace_small,
                                            tmp_path):
        path = tmp_path / "s.json"
        session.save(str(path))
        restored = AnalysisSession.load(str(path), seidel_trace_small)
        restored.zoom(8.0)
        from repro.render import StateMode, render_timeline
        fb = render_timeline(seidel_trace_small, StateMode(),
                             restored.view)
        assert fb.pixels_drawn > 0
