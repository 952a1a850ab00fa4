#pragma once

#include <cstddef>
#include <string>

#include "workloads.h"

namespace perfbench {

/// Runs the generator self-tests, appending one line per check to `log`.
bool RunSelfTests(std::size_t nproc, std::string* log);

}  // namespace perfbench
