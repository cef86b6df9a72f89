package scamv

// StageCapacity exposes the staged engine's in-flight capacity to the
// external test package, which sizes its drain campaigns from it.
var StageCapacity = stageCapacity
