/**
 * @file
 * Small statistics helpers: running accumulator and aggregate means.
 */

#ifndef BP_SUPPORT_STATS_H
#define BP_SUPPORT_STATS_H

#include <cstdint>
#include <vector>

namespace bp {

/** Streaming accumulator for count/mean/min/max/variance (Welford). */
class RunningStat
{
  public:
    /** Record one sample. */
    void add(double sample);

    /** Reset to the empty state. */
    void clear();

    uint64_t count() const { return count_; }
    double mean() const;
    double min() const;
    double max() const;
    /** Sample variance (n-1 denominator); 0 with fewer than 2 samples. */
    double variance() const;
    double sum() const { return sum_; }

  private:
    uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/** @return arithmetic mean; 0 for an empty input. */
double arithmeticMean(const std::vector<double> &values);

/** @return harmonic mean; requires strictly positive values. */
double harmonicMean(const std::vector<double> &values);

/** @return geometric mean; requires strictly positive values. */
double geometricMean(const std::vector<double> &values);

/** @return |a - b| / |b| * 100, the percent absolute error of a vs b. */
double percentAbsError(double measured, double reference);

} // namespace bp

#endif // BP_SUPPORT_STATS_H
