"""Echo the acceptance-criterion verdict lines after the test summary, and
give the tests one implicit step's residual and Jacobian at any iterate."""

from richards.scheme import jacobian, residual

CRITERION_LINES: list[str] = []


def evaluate(system, dt, s_prev, tau):
    """(f, J, s) of one implicit step at tau, as newton_solve computes them.

    J is the CSC matrix that a Newton callback receives.
    """
    f, ev = residual(system, dt, s_prev, tau)
    jac = jacobian(system, dt, ev)
    return f, system.matrix(jac.diag, jac.off), ev.s


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(
            CRITERION_LINES, key=lambda s: int(s.split("criterion ")[1].split(":")[0])
        ):
            terminalreporter.write_line(line)
