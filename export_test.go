package scamv

// AssertReplayMatchesLive lets the external chaos tests check a degraded
// campaign's trace replay against the live counters.
var AssertReplayMatchesLive = assertReplayMatchesLive

// AssertNoGoroutinesLeft lets the external tests check that a campaign left
// no goroutine behind.
var AssertNoGoroutinesLeft = assertNoGoroutinesLeft
