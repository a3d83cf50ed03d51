// Named in CMakeLists.txt but never declared with taxitrace_example().
// expect(unregistered-test)
