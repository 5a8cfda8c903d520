package ixp

// ChipProgram exposes the contention kernel to the external tests in
// package ixp_test.
const ChipProgram = chipProgram
