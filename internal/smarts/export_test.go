package smarts

// RunLoop exposes the in-place loop so tests can run it under
// functional warming, where Run selects the engine.
var RunLoop = runLoop
