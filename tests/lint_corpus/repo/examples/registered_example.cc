// Declared via taxitrace_example(registered_example); must not be
// flagged.
