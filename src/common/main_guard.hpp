// The top-level guard every example and bench `main` runs its program
// through: a bad knob or input throws std::invalid_argument or
// std::runtime_error naming it, and the guard turns that into the message
// on stderr and exit status 1 instead of std::terminate (SIGABRT, 134).
#pragma once

#include <cstdio>
#include <exception>

namespace synpa::common {

/// Returns `program()`'s exit status, or 1 after printing the what() of a
/// std::exception escaping it to stderr.
template <class Program>
int guarded_main(Program&& program) noexcept {
    try {
        return program();
    } catch (const std::exception& e) {
        // synpa-lint: trace-ok(a program's exit message, not simulation tracing)
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

}  // namespace synpa::common
