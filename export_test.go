package scamv

// StageCapacity exposes the staged engine's in-flight capacity to the
// external test package, which sizes its drain campaigns from it.
var StageCapacity = stageCapacity

// AssertReplayMatchesLive lets the external chaos tests check a degraded
// campaign's trace replay against the live counters.
var AssertReplayMatchesLive = assertReplayMatchesLive
