"""Simulated radio substrate.

The paper's evaluation runs on physical Wi-Fi testbeds.  This subpackage
implements the closest synthetic equivalent: a first-principles RSS simulator
with log-distance path loss, environment-specific multipath, a first-Fresnel-
zone human-obstruction model, and both short-term and long-term temporal
variation processes.  See DESIGN.md section 2 for the substitution argument.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "LinkChannel": "repro.rf.channel",
        "ChannelConfig": "repro.rf.channel",
        "Link": "repro.rf.geometry",
        "Point": "repro.rf.geometry",
        "first_fresnel_radius": "repro.rf.geometry",
        "point_segment_distance": "repro.rf.geometry",
        "MultipathField": "repro.rf.multipath",
        "MultipathConfig": "repro.rf.multipath",
        "PathLossModel": "repro.rf.propagation",
        "PropagationConfig": "repro.rf.propagation",
        "TargetModel": "repro.rf.target",
        "TargetConfig": "repro.rf.target",
        "ObstructionState": "repro.rf.target",
        "ShortTermNoise": "repro.rf.variation",
        "LongTermDrift": "repro.rf.variation",
        "VariationConfig": "repro.rf.variation",
    },
)
