//! The timed benchmark binary: system allocator, no tracing.

fn main() {
    tuplepath::main_with(false);
}
