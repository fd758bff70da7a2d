"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.frontend import load_model
from repro.models import load_model as load_registry_model


@pytest.fixture(autouse=True)
def _isolated_telemetry(monkeypatch):
    """Keep fleet telemetry hermetic per test: fresh metrics registry
    and no ambient run ledger unless a test sets one."""
    from repro.obs import metrics
    metrics.reset()
    monkeypatch.delenv("LIMPET_LEDGER", raising=False)
    yield
    metrics.reset()

#: the paper's Listing 1 (modified Pathmanathan), verbatim structure
LISTING1_SOURCE = """
Vm; .external(); .nodal(); .lookup(-100,100,0.05);
Iion; .external(); .nodal();
group{ u1; u2; u3; }.nodal();
group{ Cm = 200; beta = 1; xi = 3; }.param();
u1_init = 0; u2_init = 0; u3_init = 0; Vm_init = 0;
diff_u3 = 0;
diff_u2 = -(u1+u3-Vm)*cube(u2);
diff_u1 = square(u1+u3-Vm)*square(u2)+0.5*(u1+u3-Vm);
u1;.method(rk2);
Iion = (-(Cm/2.)*(u1+u3-Vm)*square(u2)*(Vm-u3)+beta);
"""

#: a compact but feature-complete model: LUT, both gate forms, an
#: rk2 state, an output expression
GATE_SOURCE = """
Vm; .external(); .lookup(-100,50,0.1);
Iion; .external();
GNa = 23; .param();
m_inf = 1/(1+exp(-(Vm+40)/7));
tau_m = 0.1 + 2*exp(-square((Vm+40)/30));
diff_m = (m_inf - m)/tau_m;
m_init = 0.05;
alpha_h = 0.07*exp(-Vm/20);
beta_h = 1/(1+exp(-(Vm+30)/10));
diff_h = alpha_h*(1-h) - beta_h*h;
h_init = 0.6;
diff_c = 0.01*(0.5 - c) - 0.001*Iion_raw;
c_init = 0.4;
c; .method(rk2);
Iion_raw = GNa*cube(m)*h*(Vm-50)*c;
Iion = 0.01*Iion_raw + 0.1*(Vm+80);
"""


@pytest.fixture
def listing1_model():
    return load_model(LISTING1_SOURCE, "Pathmanathan")


@pytest.fixture
def gate_model():
    return load_model(GATE_SOURCE, "GateTest")


@pytest.fixture(scope="session")
def hodgkin_huxley():
    return load_registry_model("HodgkinHuxley")


@pytest.fixture(scope="session")
def luo_rudy():
    return load_registry_model("LuoRudy91")
