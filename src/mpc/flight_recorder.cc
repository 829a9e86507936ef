/**
 * @file
 * Implementation of the black-box flight recorder.
 */

#include "mpc/flight_recorder.hh"

#include <sstream>

#include "support/logging.hh"
#include "support/strings.hh"

namespace robox::mpc
{

void
FlightRecorder::configure(int capacity)
{
    ring_.assign(capacity > 0 ? static_cast<std::size_t>(capacity) : 0,
                 FlightRecord());
    clear();
}

void
FlightRecorder::clear()
{
    head_ = 0;
    count_ = 0;
    total_ = 0;
}

void
FlightRecorder::push(const FlightRecord &rec)
{
    ++total_;
    if (ring_.empty())
        return;
    ring_[head_] = rec;
    head_ = (head_ + 1) % ring_.size();
    if (count_ < ring_.size())
        ++count_;
}

std::size_t
FlightRecorder::slot(std::size_t i) const
{
    return (head_ + ring_.size() - count_ + i) % ring_.size();
}

const FlightRecord &
FlightRecorder::record(int i) const
{
    robox_assert(i >= 0 && i < size());
    return ring_[slot(static_cast<std::size_t>(i))];
}

namespace
{

void
appendVector(std::ostringstream &os, const Vector &v)
{
    os << "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        os << (i ? "," : "") << jsonNumber(v[i]);
    os << "]";
}

} // namespace

std::string
FlightRecorder::toJson() const
{
    std::ostringstream os;
    os << "{\n  \"flight_recorder\": {\"capacity\": " << capacity()
       << ", \"recorded\": " << total_ << ", \"dropped\": " << dropped()
       << ", \"records\": [";
    for (int i = 0; i < size(); ++i) {
        const FlightRecord &rec = record(i);
        os << (i ? ",\n    " : "\n    ") << "{\"period\": " << rec.period
           << ", \"robot\": " << rec.robot << ", \"status\": \""
           << toString(rec.status) << "\", \"rung\": " << rec.rung
           << ", \"sensor_verdict\": " << rec.sensorVerdict
           << ", \"link_service\": " << rec.linkService
           << ", \"degraded\": " << (rec.degraded ? "true" : "false")
           << ", \"state\": ";
        appendVector(os, rec.state);
        os << ", \"command\": ";
        appendVector(os, rec.command);
        os << "}";
    }
    os << (empty() ? "]}" : "\n  ]}") << "\n}";
    return os.str();
}

template <class Self, class Ar>
bool
FlightRecorder::visit(Self &f, Ar &ar)
{
    if (!ar.expect(f.ring_.size()) || !ar.u64(f.total_) ||
        !ar.u64(f.count_) || !ar.require(f.count_ <= f.ring_.size()))
        return false;
    // Records travel oldest first. restore() clears the ring first, so
    // the reader's head_ is 0 and slot() lays the records out so that
    // the next push() overwrites the oldest, as in the live ring.
    for (std::size_t i = 0; i < f.count_; ++i) {
        auto &rec = f.ring_[f.slot(i)];
        if (!ar.u64(rec.period) || !ar.i32(rec.robot) ||
            !ar.enum32(rec.status, SolveStatus::Shed) ||
            !ar.i32(rec.rung) || !ar.i32(rec.sensorVerdict) ||
            !ar.i32(rec.linkService) || !ar.boolean(rec.degraded) ||
            !ar.vector(rec.state) || !ar.vector(rec.command))
            return false;
    }
    return true;
}

void
FlightRecorder::checkpoint(support::CheckpointWriter &w) const
{
    visit(*this, w);
}

bool
FlightRecorder::restore(support::CheckpointReader &r)
{
    clear();
    if (visit(*this, r))
        return true;
    clear();
    return false;
}

} // namespace robox::mpc
