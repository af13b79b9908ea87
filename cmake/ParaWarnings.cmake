# Warning baseline, applied to project targets only (never to third-party
# code pulled in via add_subdirectory/FetchContent) and to their C++ sources
# only (not the fiber switch's assembly). Consumed as the para_warnings
# INTERFACE library.
add_library(para_warnings INTERFACE)
target_compile_options(para_warnings INTERFACE
  $<$<COMPILE_LANGUAGE:CXX>:-Wall>
  $<$<COMPILE_LANGUAGE:CXX>:-Wextra>
  $<$<AND:$<COMPILE_LANGUAGE:CXX>,$<BOOL:${PARA_WERROR}>>:-Werror>)

# GCC 12's -Wrestrict fires a false positive on libstdc++'s own
# operator+(const char*, std::string&&) at -O2 and above (GCC PR 105329,
# fixed in GCC 13). Suppress just that warning on just that compiler so the
# -Werror baseline stays intact everywhere else.
if(CMAKE_CXX_COMPILER_ID STREQUAL "GNU" AND CMAKE_CXX_COMPILER_VERSION VERSION_LESS 13)
  target_compile_options(para_warnings INTERFACE -Wno-restrict)
endif()
