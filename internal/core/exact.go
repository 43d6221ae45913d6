package core

// MaxExactInputs bounds the state-tree width the exact solver accepts; the
// search space is 2^(n+2m), so this is for validation on small circuits
// only (paper: "the exponential nature of the problem makes it impossible
// to obtain an exact solution for substantial circuits").
const MaxExactInputs = 16
