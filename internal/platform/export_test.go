package platform

// ChargeByCharge makes sys issue every CODE(M) cost charge as its own
// RTOS burst, the execution its merged bursts must reproduce. Call it
// before the system runs.
func ChargeByCharge(sys *System) { sys.taskEnv.unmerged = true }

// CostedEntryConfig is a chart whose initial state has a costed entry
// action.
var CostedEntryConfig = costedEntryConfig
