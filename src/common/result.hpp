// Lightweight expected-style result type for fallible CSAR operations.
//
// We avoid exceptions on the simulated data path (they interact badly with
// coroutine frames and make failure injection harder to reason about); all
// client-visible file-system operations return Result<T>.
#pragma once

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace csar {

/// Error codes for file-system and cluster operations.
enum class Errc {
  ok = 0,
  not_found,        ///< file or handle does not exist
  already_exists,   ///< create() of an existing file
  invalid_argument, ///< malformed offset/size/layout
  server_failed,    ///< the I/O server holding required data is down
  unavailable,      ///< operation cannot proceed (e.g. manager down)
  corrupted,        ///< redundancy verification failed
  io_error,         ///< generic underlying storage failure
  timeout,          ///< RPC deadline expired with no reply
  media_error,      ///< latent sector error on the underlying disk
  conn_dropped,     ///< connection reset / message dropped by the fabric
  stale_generation, ///< set_redundancy with a generation below the file's
  stale_epoch,      ///< fenced meta op from before a manager restart
};

/// Human-readable name of an error code.
const char* errc_name(Errc e);

/// An error with a code and an optional context message.
struct Error {
  Errc code = Errc::io_error;
  std::string message;
  /// Index of the I/O server implicated in the failure, or -1 when unknown.
  /// Lets failover code route around the faulty server without re-probing.
  int server = -1;

  std::string to_string() const {
    std::string s = errc_name(code);
    if (!message.empty()) {
      s += ": ";
      s += message;
    }
    return s;
  }
};

/// Result<T>: either a value or an Error. Minimal std::expected stand-in
/// (libstdc++ 12 does not ship <expected>).
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : v_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Error err) : v_(std::move(err)) {}  // NOLINT: implicit by design
  Result(Errc code, std::string msg = {})
      : v_(Error{code, std::move(msg)}) {}

  bool ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return ok(); }

  T& value() & {
    assert(ok());
    return std::get<T>(v_);
  }
  const T& value() const& {
    assert(ok());
    return std::get<T>(v_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(v_));
  }

  const Error& error() const {
    assert(!ok());
    return std::get<Error>(v_);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Error> v_;
};

/// Result<void> specialization: success carries no value.
template <>
class [[nodiscard]] Result<void> {
 public:
  Result() = default;
  Result(Error err) : err_(std::move(err)), ok_(false) {}  // NOLINT
  Result(Errc code, std::string msg = {})
      : err_(Error{code, std::move(msg)}), ok_(false) {}

  bool ok() const { return ok_; }
  explicit operator bool() const { return ok_; }

  const Error& error() const {
    assert(!ok_);
    return err_;
  }

  static Result success() { return Result{}; }

 private:
  Error err_{};
  bool ok_ = true;
};

}  // namespace csar
