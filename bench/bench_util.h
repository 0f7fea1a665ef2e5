// Shared helpers for the figure/table benchmark binaries.
#pragma once

#include <iostream>
#include <string>

namespace memdis::bench {

/// Prints the standard banner naming the reproduced paper artifact.
inline void banner(const std::string& artifact, const std::string& caption) {
  std::cout << "==============================================================\n"
            << artifact << " — " << caption << "\n"
            << "(reproduction of arXiv:2308.14780; absolute numbers come from\n"
            << " the simulated testbed, the reported *shape* is the target)\n"
            << "==============================================================\n";
}

}  // namespace memdis::bench
