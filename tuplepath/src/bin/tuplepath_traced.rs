//! The counting binary: exact allocation counters and the layer trace.

#[global_allocator]
static GLOBAL: tuplepath::CountingAlloc = tuplepath::CountingAlloc;

fn main() {
    tuplepath::main_with(true);
}
