package statechart

// PumpChart lends the Fig. 2 chart of the compile tests to the package's
// external tests, which run it on the chart interpreter.
var PumpChart = pumpChart
