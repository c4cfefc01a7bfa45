package sim

// Test fixtures shared with the external sim_test package, whose tests
// import trackertest (an importer of sim itself).
var (
	SimParams         = simParams
	BlacksmithTight   = blacksmithTight
	BlacksmithBreaker = blacksmithBreaker
)
