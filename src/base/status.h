// Minimal status / status-or types used at module boundaries.
//
// Policy: expected, recoverable failures (malformed operation for an object
// type, exceeding a model-checking budget, a non-linearizable history) are
// reported through Status / StatusOr; exceptions are reserved for contract
// violations, which LBSA_CHECK turns into aborts.
#ifndef LBSA_BASE_STATUS_H_
#define LBSA_BASE_STATUS_H_

#include <string>
#include <utility>
#include <variant>

#include "base/check.h"

namespace lbsa {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kFailedPrecondition,
  kOutOfRange,
  kResourceExhausted,  // model-checking / search budget exceeded
  kNotFound,
  kInternal,
};

// Human-readable name of a StatusCode ("OK", "INVALID_ARGUMENT", ...).
const char* status_code_name(StatusCode code);

class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status(); }

  bool is_ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string to_string() const;

 private:
  StatusCode code_;
  std::string message_;
};

// Returns the Status of `expr` from the enclosing function (which returns
// Status or StatusOr) unless it is OK.
#define LBSA_RETURN_IF_ERROR(expr)                                   \
  do {                                                               \
    if (::lbsa::Status lbsa_status_ = (expr); !lbsa_status_.is_ok()) \
      return lbsa_status_;                                           \
  } while (false)

Status invalid_argument(std::string message);
Status failed_precondition(std::string message);
Status out_of_range(std::string message);
Status resource_exhausted(std::string message);
Status not_found(std::string message);
Status internal_error(std::string message);

// A value or the status explaining its absence.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : rep_(std::move(status)) {  // NOLINT(runtime/explicit)
    LBSA_CHECK_MSG(!std::get<Status>(rep_).is_ok(),
                   "StatusOr constructed from OK status without a value");
  }
  StatusOr(T value) : rep_(std::move(value)) {}  // NOLINT(runtime/explicit)

  bool is_ok() const { return std::holds_alternative<T>(rep_); }

  const Status& status() const {
    static const Status kOk = Status::ok();
    return is_ok() ? kOk : std::get<Status>(rep_);
  }

  const T& value() const& {
    LBSA_CHECK_MSG(is_ok(), status().to_string().c_str());
    return std::get<T>(rep_);
  }
  T& value() & {
    LBSA_CHECK_MSG(is_ok(), status().to_string().c_str());
    return std::get<T>(rep_);
  }
  T&& value() && {
    LBSA_CHECK_MSG(is_ok(), status().to_string().c_str());
    return std::get<T>(std::move(rep_));
  }

 private:
  std::variant<Status, T> rep_;
};

}  // namespace lbsa

#endif  // LBSA_BASE_STATUS_H_
