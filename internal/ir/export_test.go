package ir

// SampleIR is the hand-written φ-form function the parser tests share,
// for the external tests.
const SampleIR = sampleIR
