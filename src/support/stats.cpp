#include "src/support/stats.h"

#include <cmath>

#include "src/support/logging.h"

namespace bp {

void
RunningStat::add(double sample)
{
    if (count_ == 0) {
        min_ = sample;
        max_ = sample;
    } else {
        min_ = std::min(min_, sample);
        max_ = std::max(max_, sample);
    }
    ++count_;
    sum_ += sample;
    const double delta = sample - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (sample - mean_);
}

void
RunningStat::clear()
{
    *this = RunningStat();
}

double
RunningStat::mean() const
{
    return count_ == 0 ? 0.0 : mean_;
}

double
RunningStat::min() const
{
    return count_ == 0 ? 0.0 : min_;
}

double
RunningStat::max() const
{
    return count_ == 0 ? 0.0 : max_;
}

double
RunningStat::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
arithmeticMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
harmonicMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double inv_sum = 0.0;
    for (const double v : values) {
        BP_ASSERT(v > 0.0, "harmonic mean requires positive values");
        inv_sum += 1.0 / v;
    }
    return static_cast<double>(values.size()) / inv_sum;
}

double
geometricMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double v : values) {
        BP_ASSERT(v > 0.0, "geometric mean requires positive values");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
percentAbsError(double measured, double reference)
{
    if (reference == 0.0)
        return measured == 0.0 ? 0.0 : 100.0;
    return std::fabs(measured - reference) / std::fabs(reference) * 100.0;
}

} // namespace bp
