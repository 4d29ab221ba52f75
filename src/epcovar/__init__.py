"""View-conditional value-at-risk via entropy pooling.

The package measures the alpha-VaR of one asset's losses conditional on
expert views about another (or the same) asset: moment views, quantile views,
realized-value conditioning, correlation views, relative views on the loss
difference, and binned distribution views. Two engines are provided:

- a discrete scenario engine that reweights a joint scenario prior by minimum
  relative entropy under compiled linear constraints; and
- closed-form bivariate-normal analytics with the matching risk-spillover
  (CoVaR - VaR) expressions and an independent numeric minimizer used to
  cross-check every formula.

A prior-estimation pipeline (t marginals coupled by a t copula, plus an exact
quantile-regression baseline) and a CLI report layer round out the toolkit.
"""

from .analytics import (
    BivariateNormalParams,
    ViewOutcome,
    covar_correlation_view,
    covar_expectation_view,
    covar_for_view,
    covar_mean_variance_view,
    covar_quantile_view,
    covar_relative_view,
    covar_value_view,
    covar_variance_view,
    delta_covar_view,
    kl_bivariate_normal,
    numeric_posterior_params,
    traditional_covar,
    var_normal,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateError,
    EpcovarError,
    InfeasibleError,
    InfeasibleViewError,
    NumericDomainError,
)
from .estimation import (
    QRFit,
    TCopulaParams,
    TMarginal,
    fit_t_copula,
    fit_t_marginal,
    generate_scenarios,
    quantile_regression_covar,
)
from .engine import (
    IngestResult,
    ReportRow,
    RiskReport,
    RunConfig,
    backtest_stats,
    emit_report,
    ep_covar_on_panel,
    ingest_csv,
    run_pipeline,
    sensitivity_scan,
)
from .scenario import (
    Probabilities,
    ScenarioPanel,
    build_panel,
    interpolated_quantile,
    moments,
    weighted_quantile,
)
from .solver import (
    SolveReport,
    SolverOptions,
    pool,
    relative_entropy,
    solve,
)
from .views import (
    LinearConstraintSet,
    ViewSpec,
    compile_view,
    correlation_view,
    describe,
    distribution_view,
    expectation_view,
    mean_variance_view,
    no_view,
    quantile_view,
    relative_view,
    value_view,
    variance_view,
    view_from_dict,
    view_to_dict,
)

__version__ = "0.1.0"
