# Fails when .gitignore hides a file under a source directory: such a file
# builds in the working tree but never reaches a clone. Run as
#   cmake -DROOT=<repo root> -P tests/ignored_sources.cmake
# Outside a git checkout (a source tarball) there is nothing to check.
find_program(GIT git)
if(GIT)
  execute_process(COMMAND ${GIT} -C ${ROOT} rev-parse --is-inside-work-tree
                  RESULT_VARIABLE not_a_checkout OUTPUT_QUIET ERROR_QUIET)
endif()
if(NOT GIT OR not_a_checkout)
  message("SKIP: ${ROOT} is not a git checkout")
  return()
endif()
execute_process(
  COMMAND ${GIT} -C ${ROOT} ls-files -oi --exclude-standard
          -- src tools tests bench examples
  OUTPUT_VARIABLE ignored
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "git ls-files failed (${rc})")
endif()
if(ignored)
  message(FATAL_ERROR "git ignores these source files; fix .gitignore:\n"
                      "${ignored}")
endif()
